/**
 * @file
 * Differential equivalence of the word-parallel F2 core against its
 * scalar reference twins, over the whole check corpus and every forced
 * fallback rung.
 *
 * Four contracts:
 *  - check::diffF2 finds every fast/reference pair equal (F2Matrix
 *    ops, the subspace layer, applyFlat, enumerateWavefronts,
 *    countWavefronts, the ldmatrix/stmatrix tile test and the
 *    LinearLayout algebra) on every corpus case under every knockout,
 *    and compares something in every family; the tile test both finds
 *    and misses the tile.
 *  - enumerateWavefronts agrees with its reference on each path: the
 *    one-access shortcut (unwindowed, and windowed with every lane in
 *    its window) and the full sweep (lanes straddling a window,
 *    padding). A multi-pass round trip moves and counts exactly what
 *    a reference walk of every access in every pass does, on either
 *    path.
 *  - sim::SharedMemory::countWavefronts and its node-based reference
 *    agree on random address patterns with idle lanes.
 *  - The Section 5.3 tiles divide what they should (the tile-division
 *    reference in check::reference), and the column tile test agrees
 *    with that division on hand-built maps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/oracle.h"
#include "check/tiles_reference.h"
#include "check/wavefront_reference.h"
#include "codegen/conversion.h"
#include "codegen/shared_exec.h"
#include "codegen/swizzle.h"
#include "layout/dims.h"
#include "sim/memory_sim.h"
#include "support/failpoint.h"
#include "support/metrics.h"
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

codegen::ConversionPlan
planUnder(const LinearLayout &src, const LinearLayout &dst, int elemBytes,
          const sim::GpuSpec &spec, const std::vector<std::string> &sites)
{
    failpoint::ScopedSet guard(sites);
    return codegen::planConversion(src, dst, elemBytes, spec);
}

/** The one cost of a shared plan rebuilt from the reference-swept
 *  store/load wavefront totals: each side serialized per warp, plus one
 *  round-trip barrier per pass, with no ldmatrix/stmatrix discount. */
double
referenceSharedCycles(const codegen::ConversionPlan &plan,
                      const LinearLayout &src, const LinearLayout &dst,
                      int elemBytes, const sim::GpuSpec &spec)
{
    const auto &swz = *plan.shared;
    const int numWarps =
        src.hasInDim(dims::kWarp) ? src.getInDimSize(dims::kWarp) : 1;
    const double store = static_cast<double>(
                             check::reference::enumerateWavefronts(
                                 swz, src, elemBytes, spec)) /
                         numWarps * spec.sharedWavefrontCycles;
    const double load = static_cast<double>(
                            check::reference::enumerateWavefronts(
                                swz, dst, elemBytes, spec)) /
                        numWarps * spec.sharedWavefrontCycles;
    const double passes =
        static_cast<double>(swz.passesFor(src.getTotalOutDimSize()));
    return store + load + passes * spec.sharedRoundTripCycles;
}

// Every fast F2 primitive must equal its reference twin on the inputs
// each corpus case yields, at every forced rung (swizzled, padded and
// scalar shared layouts all occur across the knockout sets), and no
// comparison family may come out empty. Every shared plan's cost is
// the one its reference-swept totals imply: exactly, or at most that
// when an ldmatrix/stmatrix discount applies.
TEST(WavefrontEquiv, EnumerateMatchesReferenceOnCorpusPlans)
{
    check::OracleReport::F2Comparisons total;
    int sharedPlans = 0;
    for (const auto &[label, sites] : rungKnockouts()) {
        for (const auto &e : corpus()) {
            ConversionCase c = e.c;
            c.failpoints = sites;
            const check::OracleReport report = check::diffF2(c);
            EXPECT_TRUE(report.ok())
                << e.file << " under " << label << ": " << report.detail;
            total += report.f2Compared;

            const auto spec = c.spec();
            const auto plan = planUnder(c.src, c.dst, c.elemBytes, spec,
                                        sites);
            if (!plan.shared.has_value())
                continue;
            ++sharedPlans;
            const double cycles =
                plan.estimateCycles(c.src, c.elemBytes, spec);
            const double reference = referenceSharedCycles(
                plan, c.src, c.dst, c.elemBytes, spec);
            if (plan.usesLdmatrix || plan.usesStmatrix)
                EXPECT_LE(cycles, reference)
                    << e.file << " under " << label;
            else
                EXPECT_EQ(cycles, reference)
                    << e.file << " under " << label;
        }
    }
    EXPECT_GT(sharedPlans, 0) << "no corpus case reached a shared rung";
    EXPECT_GT(total.matrix, 0);
    EXPECT_GT(total.subspace, 0);
    EXPECT_GT(total.applyFlat, 0);
    EXPECT_GT(total.wavefront, 0) << "no corpus case reached a shared rung";
    EXPECT_GT(total.tile, 0) << "no corpus case reached a shared rung";
    EXPECT_GT(total.tileMatched, 0) << "no side took the ldmatrix tile";
    EXPECT_LT(total.tileMatched, total.tile)
        << "every side took the ldmatrix tile";
    EXPECT_GT(total.layout, 0);
    std::cout << "tile comparisons: " << total.tile << ", "
              << total.tileMatched << " matched\n";
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

LinearLayout
blocked(const triton::Shape &spt, const triton::Shape &tpw,
        const triton::Shape &wpc, const std::vector<int32_t> &order,
        const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

/** (register, lane, warp) input order with size-1 fills, outputs in
 *  `outs` order: the form the shared executors and access tables take. */
LinearLayout
canonical(const LinearLayout &layout, const std::vector<std::string> &outs)
{
    LinearLayout out = layout;
    for (const auto &dim : {dims::kReg, dims::kLane, dims::kWarp}) {
        if (!out.hasInDim(dim))
            out = out * LinearLayout::identity1D(
                            1, dim, out.getOutDimNames().front());
    }
    return out.transposeIns({dims::kReg, dims::kLane, dims::kWarp})
        .transposeOuts(outs);
}

/** Whether every access of `dist` through `swz` lies in one window —
 *  the condition for enumerateWavefronts' one-access shortcut. */
bool
lanesFit(const codegen::SwizzledShared &swz, const LinearLayout &dist)
{
    const codegen::WarpAccessTable table(
        swz, canonical(dist, swz.memLayout.getOutDimNames()));
    return table.lanesFit(
        swz.allocElems(swz.memLayout.getTotalInDimSize()));
}


/** 256 x 256 x f32 = 256 KiB exceeds GH200's 228 KiB CTA budget, so
 *  the pair plans to a windowed, vectorized rung-4 swizzle (two passes)
 *  whose lanes all fit one window. */
codegen::ConversionPlan
oversizedWindowedPlan(LinearLayout &src, LinearLayout &dst)
{
    src = blocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {256, 256});
    dst = blocked({4, 1}, {4, 8}, {2, 2}, {0, 1}, {256, 256});
    return codegen::planConversion(src, dst, 4, sim::GpuSpec::gh200());
}

/** The same pair with rung 4 knocked out: the padded rung cannot fit
 *  either, so it plans to a windowed scalar round trip (two passes)
 *  whose lanes all fit one window. */
codegen::ConversionPlan
oversizedWindowedScalarPlan(LinearLayout &src, LinearLayout &dst)
{
    oversizedWindowedPlan(src, dst);
    return planUnder(src, dst, 4, sim::GpuSpec::gh200(),
                     codegen::demotionSitesFor(ConversionKind::SharedMemory));
}

/** The scalar plan of a 32 x 32 x f32 transpose: src and dst set, plan
 *  unwindowed and unpadded. */
codegen::ConversionPlan
scalarTransposePlan(LinearLayout &src, LinearLayout &dst)
{
    src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {32, 32});
    dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {32, 32});
    return planUnder(src, dst, 4, sim::GpuSpec::gh200(),
                     codegen::demotionSitesFor(ConversionKind::SharedPadded));
}

/** scalarTransposePlan hand-windowed to 8 elements: 128 passes, and
 *  every warp access spans several windows, so lanes straddle. Its
 *  totals are re-priced by the reference enumeration. */
codegen::ConversionPlan
straddlingWindowedPlan(LinearLayout &src, LinearLayout &dst)
{
    const auto spec = sim::GpuSpec::gh200();
    codegen::ConversionPlan plan = scalarTransposePlan(src, dst);
    plan.shared->windowElems = 8;
    plan.storeWavefrontsTotal =
        check::reference::enumerateWavefronts(*plan.shared, src, 4, spec);
    plan.loadWavefrontsTotal =
        check::reference::enumerateWavefronts(*plan.shared, dst, 4, spec);
    return plan;
}

/** One multi-pass fixture: its plan, layouts, the rung that planned
 *  it, and whether its lanes straddle a window. */
struct WindowedFixture
{
    std::string label;
    codegen::ConversionPlan plan;
    LinearLayout src, dst;
    ConversionKind kind;
    bool straddle;
};

/** The windowed rung-4 swizzle, the windowed scalar round trip and the
 *  hand-built straddling plan, all f32 on GH200. */
std::vector<WindowedFixture>
windowedFixtures()
{
    std::vector<WindowedFixture> out;
    auto add = [&out](std::string label,
                      codegen::ConversionPlan (*make)(LinearLayout &,
                                                      LinearLayout &),
                      ConversionKind kind, bool straddle) {
        WindowedFixture f{std::move(label), {}, {}, {}, kind, straddle};
        f.plan = make(f.src, f.dst);
        out.push_back(std::move(f));
    };
    add("rung 4, lanes in window", oversizedWindowedPlan,
        ConversionKind::SharedMemory, false);
    add("scalar, lanes in window", oversizedWindowedScalarPlan,
        ConversionKind::SharedScalar, false);
    add("scalar, lanes straddle", straddlingWindowedPlan,
        ConversionKind::SharedScalar, true);
    return out;
}

// Windowed plans partition the offset space into shared-memory-sized
// windows; lanes outside the current window are kInactiveLane. Each
// fixture is windowed, so the masking path is live in the reference
// enumeration.
TEST(WavefrontEquiv, WindowedPlanMatchesReference)
{
    const auto spec = sim::GpuSpec::gh200();
    const int elemBytes = 4;
    for (const auto &f : windowedFixtures()) {
        ASSERT_TRUE(f.plan.shared.has_value()) << f.label;
        ASSERT_TRUE(f.plan.shared->windowed())
            << f.label << ": fixture no longer forces a windowed plan";
        EXPECT_EQ(codegen::enumerateWavefronts(*f.plan.shared, f.src,
                                               elemBytes, spec),
                  check::reference::enumerateWavefronts(
                      *f.plan.shared, f.src, elemBytes, spec))
            << f.label;
        EXPECT_EQ(codegen::enumerateWavefronts(*f.plan.shared, f.dst,
                                               elemBytes, spec),
                  check::reference::enumerateWavefronts(
                      *f.plan.shared, f.dst, elemBytes, spec))
            << f.label;
    }
}

/** What the one-access shortcut would price `dist` at: the wavefronts
 *  of access (0, 0), unmasked, times the number of warp accesses. */
int64_t
oneAccessTimesCount(const codegen::SwizzledShared &swz,
                    const LinearLayout &dist, int elemBytes,
                    const sim::GpuSpec &spec)
{
    const codegen::WarpAccessTable table(
        swz, canonical(dist, swz.memLayout.getOutDimNames()));
    std::vector<int64_t> offsets, byteAddrs;
    table.offsetsInto(0, 0, offsets);
    for (int64_t o : offsets)
        byteAddrs.push_back(o * elemBytes);
    return sim::SharedMemory::countWavefronts(spec, byteAddrs,
                                              swz.vecElems() * elemBytes) *
           codegen::countWarpAccesses(swz, dist);
}

// enumerateWavefronts prices a plan whose accesses each lie in one
// window by one access times the access count (every access is a
// vec-aligned XOR translate of access (0, 0)), and sweeps every access
// of every pass otherwise. Both paths must equal the reference sweep:
// an unwindowed swizzle and a windowed plan with every lane in its
// window take the shortcut; a window the lanes straddle and a padded
// layout take the sweep.
TEST(WavefrontEquiv, OneAccessShortcutMatchesReference)
{
    struct Probe
    {
        std::string label;
        codegen::ConversionPlan plan;
        LinearLayout src, dst;
        int elemBytes;
        sim::GpuSpec spec;
        bool shortcut;
    };
    std::vector<Probe> probes;
    {
        const auto spec = sim::GpuSpec::gh200();
        auto src = blocked({1, 4}, {8, 4}, {4, 1}, {1, 0}, {32, 32});
        auto dst = blocked({4, 1}, {8, 4}, {4, 1}, {0, 1}, {32, 32});
        auto plan = planUnder(src, dst, 2, spec,
                              codegen::demotionSitesFor(
                                  ConversionKind::WarpShuffle));
        probes.push_back({"unwindowed", plan, src, dst, 2, spec, true});
    }
    {
        LinearLayout src, dst;
        auto plan = oversizedWindowedPlan(src, dst);
        probes.push_back({"windowed, lanes in window", plan, src, dst, 4,
                          sim::GpuSpec::gh200(), true});
    }
    {
        LinearLayout src, dst;
        auto plan = straddlingWindowedPlan(src, dst);
        probes.push_back({"windowed, lanes straddle", plan, src, dst, 4,
                          sim::GpuSpec::gh200(), false});
    }
    {
        // A pad of one element every 48 rotates rows by amounts no XOR
        // reproduces, so accesses differ in cost.
        LinearLayout src, dst;
        auto plan = scalarTransposePlan(src, dst);
        plan.shared->padInterval = 48;
        plan.shared->padElems = 1;
        probes.push_back(
            {"padded", plan, src, dst, 4, sim::GpuSpec::gh200(), false});
    }

    for (const auto &p : probes) {
        ASSERT_TRUE(p.plan.shared.has_value()) << p.label;
        const auto &swz = *p.plan.shared;
        const int64_t numElems = p.src.getTotalOutDimSize();
        if (p.label == "unwindowed")
            EXPECT_FALSE(swz.windowed() || swz.padded()) << p.label;
        else if (p.label == "padded")
            EXPECT_TRUE(swz.padded()) << p.label;
        else
            EXPECT_GE(swz.passesFor(numElems), 2) << p.label;
        EXPECT_EQ(lanesFit(swz, p.src) && lanesFit(swz, p.dst), p.shortcut)
            << p.label << ": fixture no longer takes the intended path";
        int64_t reference = 0, oneAccessPriced = 0;
        for (const auto *side : {&p.src, &p.dst}) {
            const int64_t ref = check::reference::enumerateWavefronts(
                swz, *side, p.elemBytes, p.spec);
            EXPECT_EQ(codegen::enumerateWavefronts(swz, *side, p.elemBytes,
                                                   p.spec),
                      ref)
                << p.label << (side == &p.src ? " (store)" : " (load)");
            reference += ref;
            oneAccessPriced += oneAccessTimesCount(swz, *side, p.elemBytes,
                                                   p.spec);
        }
        // A sweep fixture must be one the shortcut would misprice.
        if (!p.shortcut) {
            EXPECT_NE(oneAccessPriced, reference) << p.label;
        }
    }
}

// A multi-pass round trip visits an access whose lanes fit one window
// only in that window's pass, and walks every access in every pass when
// lanes straddle. Either way it must move and count exactly what a
// walk of every access in every pass does: the same store/load stats
// as an independent reference that masks each access to each window
// and issues it on a per-pass sim::SharedMemory, every dst register
// holding its own element (so executeSharedConversion and the smoke
// run pass, price audit included), and one masked lane per (access,
// lane, pass) that is not the lane's own pass. The vectorized rung-4
// fixture moves vecElems() > 1 elements per lane.
TEST(WavefrontEquiv, MultiPassRoundTripMatchesExecutorAndMasksTheRest)
{
    const auto spec = sim::GpuSpec::gh200();
    const int elemBytes = 4;
    auto &masked = metrics::counter("exec.shared.lanes_masked");
    for (const auto &fixture : windowedFixtures()) {
        const std::string &label = fixture.label;
        const bool straddle = fixture.straddle;
        const LinearLayout &src = fixture.src;
        const LinearLayout &dst = fixture.dst;
        const codegen::ConversionPlan &plan = fixture.plan;
        ASSERT_EQ(plan.kind, fixture.kind) << label;
        const auto &swz = *plan.shared;
        const int64_t numElems = src.getTotalOutDimSize();
        const int64_t passes = swz.passesFor(numElems);
        ASSERT_GE(passes, 2) << label;
        EXPECT_EQ(lanesFit(swz, src) && lanesFit(swz, dst), !straddle)
            << label;

        const LinearLayout s = canonical(src, src.getOutDimNames());
        const LinearLayout d = canonical(dst, src.getOutDimNames());
        const int64_t before = masked.value();
        auto rt = codegen::runSharedRoundTrip(swz, s, d,
                                              codegen::flatImage(s),
                                              elemBytes, spec);
        ASSERT_TRUE(rt.ok()) << label << ": " << rt.diag().toString();
        const int64_t maskedDelta = masked.value() - before;
        EXPECT_EQ(rt->dstFile, codegen::flatImage(d)) << label;
        auto verified = codegen::executeSharedConversion(swz, src, dst,
                                                         elemBytes, spec);
        EXPECT_TRUE(verified.ok()) << label << ": "
                                   << verified.diag().toString();
        EXPECT_FALSE(
            codegen::smokeExecutePlan(plan, src, dst, elemBytes, spec))
            << label;
        // A windowed plan pays one round-trip barrier per pass.
        EXPECT_EQ(plan.estimateCycles(src, elemBytes, spec),
                  referenceSharedCycles(plan, src, dst, elemBytes, spec))
            << label;

        // The reference walk: every access of every pass, each lane
        // active in exactly the pass that holds its offset and masked in
        // all the others, stores before loads within a pass.
        const int64_t window = swz.allocElems(numElems);
        const int vec = swz.vecElems();
        sim::AccessStats storeStats, loadStats;
        int64_t expected = 0;
        std::vector<int64_t> offsets;
        std::vector<uint64_t> values, loaded;
        for (int64_t pass = 0; pass < passes; ++pass) {
            sim::SharedMemory smem(spec, elemBytes, window);
            for (const LinearLayout *side : {&s, &d}) {
                const LinearLayout dist =
                    canonical(*side, swz.memLayout.getOutDimNames());
                const codegen::WarpAccessTable table(swz, dist);
                const int warps = dist.getInDimSize(dims::kWarp);
                for (int warp = 0; warp < warps; ++warp) {
                    for (int32_t rep :
                         codegen::registerGroupReps(swz, dist)) {
                        offsets.clear();
                        table.offsetsInto(rep, warp, offsets);
                        int64_t active = 0;
                        for (int64_t &o : offsets) {
                            if (o >= pass * window &&
                                o < (pass + 1) * window) {
                                o -= pass * window;
                                ++active;
                            } else {
                                o = sim::kInactiveLane;
                            }
                        }
                        expected +=
                            static_cast<int64_t>(offsets.size()) - active;
                        if (active == 0)
                            continue;
                        if (side == &s) {
                            values.assign(offsets.size() *
                                              static_cast<size_t>(vec),
                                          0);
                            smem.warpStore(offsets, vec, values,
                                           storeStats);
                        } else {
                            smem.warpLoad(offsets, vec, loaded, loadStats);
                        }
                    }
                }
            }
        }
        for (const auto &[got, want] :
             {std::pair{rt->storeStats, storeStats},
              std::pair{rt->loadStats, loadStats}}) {
            EXPECT_EQ(got.instructions, want.instructions) << label;
            EXPECT_EQ(got.transactions, want.transactions) << label;
            EXPECT_EQ(got.wavefronts, want.wavefronts) << label;
        }
        EXPECT_EQ(maskedDelta, expected) << label;
    }
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

// ----------------------------------------------------------------------
// Tiles and division (Section 5.3): the reference the column tile
// test is held to
// ----------------------------------------------------------------------

using check::reference::ldmatrixTile;
using check::reference::matchesLdmatrixTile;
using check::reference::maxVectorization;
using check::reference::permuteRegistersForTile;
using check::reference::tileMatches;
using check::reference::vectorTile;
using dims::kLane;
using dims::kOffset;
using dims::kReg;

TEST(Tiles, VectorTileDividesAlignedLayout)
{
    // registers map identically to low offset bits.
    auto cvt = LinearLayout::identity1D(8, kReg, kOffset) *
               LinearLayout::identity1D(32, kLane, kOffset);
    EXPECT_TRUE(tileMatches(cvt, vectorTile(4)));
    EXPECT_TRUE(tileMatches(cvt, vectorTile(8)));
}

TEST(Tiles, VectorTileRejectsStridedLayout)
{
    // Lanes own the low offset bits: no register vectorization.
    auto cvt = LinearLayout::identity1D(32, kLane, kOffset) *
               LinearLayout::identity1D(8, kReg, kOffset);
    EXPECT_FALSE(tileMatches(cvt, vectorTile(2)));
    EXPECT_EQ(maxVectorization(cvt, 8), 1);
}

TEST(Tiles, RegisterPermutationEnablesVectorization)
{
    // Registers map to offset bits in reversed order; a permutation
    // fixes it (generalized vectorization).
    LinearLayout::BasesT bases;
    bases.insert(kReg, {{4}, {2}, {1}});
    bases.insert(kLane, {{8}, {16}, {32}, {64}, {128}});
    LinearLayout cvt(std::move(bases), {{kOffset, 256}});
    EXPECT_FALSE(tileMatches(cvt, vectorTile(8)));
    auto permuted = permuteRegistersForTile(cvt, 8);
    ASSERT_TRUE(permuted.has_value());
    EXPECT_TRUE(tileMatches(*permuted, vectorTile(8)));
    EXPECT_EQ(maxVectorization(cvt, 8), 8);
}

TEST(Tiles, LdmatrixTileShape)
{
    // f16: 2 register bits (4 bytes) + 2 lane bits (16-byte rows).
    auto tile = ldmatrixTile(2);
    EXPECT_EQ(tile.getInDimSize(kReg), 2);
    EXPECT_EQ(tile.getInDimSize(kLane), 4);
    EXPECT_EQ(tile.getOutDimSize(kOffset), 8);
}

TEST(Tiles, LdmatrixMatchesRowMajorSharedForMmaOperand)
{
    // A f16 mma A-operand fragment loading from unswizzled row-major
    // shared memory: reg bit 0 covers contiguous k, lanes 0-1 continue
    // the row. Construct the resource->offset map directly.
    triton::DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {1, 1};
    enc.opIdx = 0;
    enc.bitwidth = 16;
    auto frag = enc.toLinearLayout({16, 16});
    auto shared = triton::unswizzledSharedLayout({16, 16}, {1, 0});
    auto cvt = frag.compose(
        shared.invert().transposeIns(frag.getOutDimNames()));
    EXPECT_TRUE(tileMatches(cvt, ldmatrixTile(2)));
}

/** `dist`'s OffsetColumns through the invertible memory layout `mem`. */
codegen::OffsetColumns
columnsThrough(const LinearLayout &dist, const LinearLayout &mem)
{
    codegen::SwizzledShared swz;
    swz.memLayout = mem;
    swz.tensorToOffset = mem.invert();
    return codegen::OffsetColumns(swz, dist);
}

/** The column tile test and tile division of the same composed map
 *  agree at every element width. */
void
expectTileTestsAgree(const LinearLayout &dist, const LinearLayout &mem,
                     const std::string &label)
{
    const auto cols = columnsThrough(dist, mem);
    const auto cvt =
        dist.compose(mem.invert().transposeIns(dist.getOutDimNames()));
    for (int elemBytes : {1, 2, 4, 8}) {
        EXPECT_EQ(codegen::matchesMatrixTile(cols, elemBytes),
                  matchesLdmatrixTile(cvt, elemBytes))
            << label << " at " << elemBytes << " bytes";
    }
}

TEST(Tiles, ColumnTestAgreesWithDivision)
{
    // The f16 mma A operand of LdmatrixMatchesRowMajorSharedForMmaOperand
    // through row-major shared memory, and a blocked layout whose lanes
    // own the low offset bits.
    triton::DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {1, 1};
    enc.opIdx = 0;
    enc.bitwidth = 16;
    const auto shared = triton::unswizzledSharedLayout({16, 16}, {1, 0});
    expectTileTestsAgree(enc.toLinearLayout({16, 16}), shared,
                         "mma operand");
    expectTileTestsAgree(
        blocked({1, 4}, {16, 2}, {1, 1}, {0, 1}, {16, 16}), shared,
        "strided");

    // Offsets written out directly (memory is the identity on dim0):
    // the 1-byte tile (two register bits, two lane bits) with its
    // registers in reverse order, then the same map with a warp column
    // reaching into the tile's low bits.
    const auto mem = LinearLayout::identity1D(256, kOffset, "dim0");
    auto offsets = [](std::vector<std::vector<int32_t>> warp) {
        LinearLayout::BasesT bases;
        bases.insert(kReg, {{2}, {1}, {128}});
        bases.insert(kLane, {{4}, {8}, {16}, {32}, {64}});
        bases.insert(dims::kWarp, std::move(warp));
        return LinearLayout(std::move(bases), {{"dim0", 256}},
                            /*requireSurjective=*/false);
    };
    const auto clean = offsets({{0}});
    const auto touching = offsets({{129}});
    expectTileTestsAgree(clean, mem, "permuted registers");
    expectTileTestsAgree(touching, mem, "warp in the tile's bits");

    EXPECT_TRUE(codegen::matchesMatrixTile(columnsThrough(clean, mem), 1));
    EXPECT_FALSE(
        codegen::matchesMatrixTile(columnsThrough(touching, mem), 1));
}

} // namespace
} // namespace ll
