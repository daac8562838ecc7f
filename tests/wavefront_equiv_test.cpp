/**
 * @file
 * Differential equivalence of the word-parallel F2 core against its
 * scalar reference twins, over the whole check corpus and every forced
 * fallback rung.
 *
 * Three contracts:
 *  - check::diffF2 finds every fast/reference pair equal (F2Matrix
 *    ops, the subspace layer, applyFlat, enumerateWavefronts and
 *    countWavefronts) on every corpus case under every knockout, and
 *    compares something in every family.
 *  - enumerateWavefronts agrees with its reference on a windowed plan,
 *    where kInactiveLane masking is live.
 *  - sim::SharedMemory::countWavefronts and its node-based reference
 *    agree on random address patterns with idle lanes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "codegen/swizzle.h"
#include "sim/memory_sim.h"
#include "support/failpoint.h"
#include "triton/encodings.h"

namespace ll {
namespace {

using check::ConversionCase;
using codegen::ConversionKind;

struct CorpusEntry
{
    std::string file;
    ConversionCase c;
};

const std::vector<CorpusEntry> &
corpus()
{
    static const std::vector<CorpusEntry> entries = [] {
        std::vector<std::string> paths;
        for (const auto &e :
             std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
            if (e.path().extension() == ".txt")
                paths.push_back(e.path().string());
        }
        std::sort(paths.begin(), paths.end());
        std::vector<CorpusEntry> out;
        for (const auto &p : paths) {
            out.push_back({std::filesystem::path(p).filename().string(),
                           check::readCaseFile(p)});
        }
        return out;
    }();
    return entries;
}

/** The knockout sets that force each fallback rung, natural plan first. */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
rungKnockouts()
{
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        sets = {
            {"natural", {}},
            {"below-noop", codegen::demotionSitesFor(ConversionKind::NoOp)},
            {"below-register-permute",
             codegen::demotionSitesFor(ConversionKind::RegisterPermute)},
            {"below-warp-shuffle",
             codegen::demotionSitesFor(ConversionKind::WarpShuffle)},
            {"below-shared-memory",
             codegen::demotionSitesFor(ConversionKind::SharedMemory)},
            {"below-shared-padded",
             codegen::demotionSitesFor(ConversionKind::SharedPadded)},
        };
    return sets;
}

// Every fast F2 primitive must equal its reference twin on the inputs
// each corpus case yields, at every forced rung (swizzled, padded and
// scalar shared layouts all occur across the knockout sets), and no
// comparison family may come out empty.
TEST(WavefrontEquiv, EnumerateMatchesReferenceOnCorpusPlans)
{
    check::OracleReport::F2Comparisons total;
    for (const auto &[label, sites] : rungKnockouts()) {
        for (const auto &e : corpus()) {
            ConversionCase c = e.c;
            c.failpoints = sites;
            const check::OracleReport report = check::diffF2(c);
            EXPECT_TRUE(report.ok())
                << e.file << " under " << label << ": " << report.detail;
            total += report.f2Compared;
        }
    }
    EXPECT_GT(total.matrix, 0);
    EXPECT_GT(total.subspace, 0);
    EXPECT_GT(total.applyFlat, 0);
    EXPECT_GT(total.wavefront, 0) << "no corpus case reached a shared rung";
}

// The shared executor against two independent references, at every
// rung knockout: the wavefronts runSharedRoundTrip measures (through the
// oracle, which runs it on the tagged register file) equal
// enumerateWavefronts of src (stores) and dst (loads), and every dst
// register receives the element the oracle computes by applying dst.
TEST(WavefrontEquiv, RoundTripMatchesEnumerationAndOracle)
{
    int sharedPlans = 0;
    for (const auto &[label, sites] : rungKnockouts()) {
        for (const auto &e : corpus()) {
            failpoint::ScopedSet guard(sites);
            const auto spec = e.c.spec();
            auto plan = codegen::tryPlanConversion(
                e.c.src, e.c.dst, e.c.elemBytes, spec);
            ASSERT_TRUE(plan.ok()) << e.file << " under " << label;
            if (!plan->shared.has_value())
                continue;
            ++sharedPlans;
            const auto &swz = *plan->shared;
            const check::OracleReport report = check::checkPlan(
                *plan, e.c.src, e.c.dst, e.c.elemBytes, spec);
            ASSERT_TRUE(report.structureOk)
                << e.file << " under " << label << ": " << report.detail;
            EXPECT_EQ(report.measuredStoreWavefronts,
                      codegen::enumerateWavefronts(swz, e.c.src,
                                                   e.c.elemBytes, spec))
                << e.file << " under " << label << " (store)";
            EXPECT_EQ(report.measuredLoadWavefronts,
                      codegen::enumerateWavefronts(swz, e.c.dst,
                                                   e.c.elemBytes, spec))
                << e.file << " under " << label << " (load)";
            EXPECT_EQ(report.elementsChecked, e.c.dst.getTotalInDimSize())
                << e.file << " under " << label;
            EXPECT_EQ(report.mismatches, 0)
                << e.file << " under " << label << ": " << report.detail;
        }
    }
    EXPECT_GT(sharedPlans, 0) << "no corpus case reached a shared rung";
}

// Windowed plans partition the offset space into shared-memory-sized
// windows; lanes outside the current window are kInactiveLane. An
// oversized tensor (256 KiB > GH200's 228 KiB CTA budget) forces a
// windowed scalar plan, so the masking path is live in both
// enumerations.
TEST(WavefrontEquiv, WindowedPlanMatchesReference)
{
    auto spec = sim::GpuSpec::gh200();
    triton::BlockedEncoding srcEnc;
    srcEnc.sizePerThread = {1, 4};
    srcEnc.threadsPerWarp = {8, 4};
    srcEnc.warpsPerCta = {2, 2};
    srcEnc.order = {1, 0};
    triton::BlockedEncoding dstEnc;
    dstEnc.sizePerThread = {4, 1};
    dstEnc.threadsPerWarp = {4, 8};
    dstEnc.warpsPerCta = {2, 2};
    dstEnc.order = {0, 1};
    const triton::Shape shape = {256, 256};
    LinearLayout src = srcEnc.toLinearLayout(shape);
    LinearLayout dst = dstEnc.toLinearLayout(shape);
    const int elemBytes = 4;

    auto plan = codegen::tryPlanConversion(src, dst, elemBytes, spec);
    ASSERT_TRUE(plan.ok()) << plan.diag().toString();
    ASSERT_TRUE(plan->shared.has_value());
    ASSERT_TRUE(plan->shared->windowed())
        << "fixture no longer forces a windowed plan";
    EXPECT_EQ(codegen::enumerateWavefronts(*plan->shared, src, elemBytes,
                                           spec),
              codegen::enumerateWavefronts_reference(*plan->shared, src,
                                                     elemBytes, spec));
    EXPECT_EQ(codegen::enumerateWavefronts(*plan->shared, dst, elemBytes,
                                           spec),
              codegen::enumerateWavefronts_reference(*plan->shared, dst,
                                                     elemBytes, spec));
}

// The sort-based per-access counter against the node-based reference,
// over random address patterns with idle lanes mixed in.
TEST(WavefrontEquiv, CountWavefrontsMatchesReferenceOnRandomAccesses)
{
    auto spec = sim::GpuSpec::gh200();
    std::mt19937 rng(0x3a7eu);
    for (int trial = 0; trial < 200; ++trial) {
        std::uniform_int_distribution<int> lanes(1, 32);
        std::uniform_int_distribution<int64_t> addr(0, 4096);
        std::uniform_int_distribution<int> idle(0, 3);
        std::vector<int64_t> byteAddrs;
        const int n = lanes(rng);
        for (int l = 0; l < n; ++l) {
            byteAddrs.push_back(idle(rng) == 0 ? sim::kInactiveLane
                                               : addr(rng) * 4);
        }
        for (int accessBytes : {4, 8, 16}) {
            EXPECT_EQ(sim::SharedMemory::countWavefronts(spec, byteAddrs,
                                                         accessBytes),
                      sim::SharedMemory::countWavefronts_reference(
                          spec, byteAddrs, accessBytes))
                << "trial " << trial << " accessBytes " << accessBytes;
        }
    }
}

} // namespace
} // namespace ll
