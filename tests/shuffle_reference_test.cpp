/**
 * @file
 * Differential test of the warp-shuffle planner against its per-element
 * reference twin (check::shuffleTable_reference).
 *
 * codegen::planWarpShuffle builds a plan as the F2 map from transfer
 * index to packed (srcReg, srcLane, dstReg) word and decides
 * feasibility with one rank test. The reference visits every warp-0
 * element instead. On every input below both must make the same
 * accept/reject decision with the same diagnostic, agree on the number
 * of communicating rounds, and decode to the same (srcLane, srcReg,
 * dstReg) at every (round, lane, slot):
 *  - the 36 Figure 7 cases (4 x 3 shapes x 3 element widths);
 *  - every corpus case, planned directly and through the ladder,
 *    naturally and under each rung knockout;
 *  - 2200 random intra-warp pairs: a random injective layout A and a
 *    layout B whose register and lane columns are A's recombined by a
 *    random invertible map, so B^-1 . A keeps warps fixed;
 *  - 500 random pairs in which B swaps some of A's lane columns with
 *    register columns: xor-butterfly exchanges, whose communicating
 *    rounds the planner counts by a rank.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/generators.h"
#include "check/shuffle_reference.h"
#include "codegen/conversion.h"
#include "codegen/shared_exec.h"
#include "codegen/shuffle.h"
#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/failpoint.h"
#include "triton/encodings.h"

namespace ll {
namespace {

using codegen::ConversionKind;
using dims::kLane;
using dims::kReg;
using dims::kWarp;

/** Tally of one differential sweep. */
struct Tally
{
    int compared = 0;
    int accepted = 0;
    std::map<std::string, int> rejects; ///< by diagnostic text
};

/** Plan (a, b) both ways and require agreement. */
void
expectAgree(const LinearLayout &a, const LinearLayout &b, int elemBytes,
            const sim::GpuSpec &spec, const std::string &label,
            Tally &tally)
{
    auto plan = codegen::planWarpShuffle(a, b, elemBytes, spec);
    auto table = check::shuffleTable_reference(a, b, elemBytes, spec);
    EXPECT_EQ(check::diffShuffleTable(plan, table), "") << label;
    ++tally.compared;
    if (plan.ok())
        ++tally.accepted;
    else
        ++tally.rejects[plan.diag().message];
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

TEST(ShuffleReference, Figure7Cases)
{
    const auto spec = sim::GpuSpec::gh200();
    Tally tally;
    for (int32_t rows : {16, 32, 64, 128}) {
        for (int32_t cols : {64, 128, 256}) {
            for (int elemBytes : {1, 2, 4}) {
                const triton::Shape shape = {rows, cols};
                auto src = blocked({1, 8}, {8, 4}, {2, 2}, {1, 0}, shape);
                auto dst = blocked({8, 1}, {1, 32}, {2, 2}, {1, 0}, shape);
                expectAgree(src, dst, elemBytes, spec,
                            "fig7 " + std::to_string(rows) + "x" +
                                std::to_string(cols) + " " +
                                std::to_string(elemBytes) + "B",
                            tally);
            }
        }
    }
    EXPECT_EQ(tally.compared, 36);
    EXPECT_EQ(tally.accepted, 36) << "every Figure 7 case is a shuffle";
}

TEST(ShuffleReference, CorpusUnderEveryKnockout)
{
    std::vector<std::string> paths;
    for (const auto &e : std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
        if (e.path().extension() == ".txt")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_FALSE(paths.empty());

    std::vector<std::pair<std::string, std::vector<std::string>>> knockouts =
        {{"natural", {}}};
    for (ConversionKind kind :
         {ConversionKind::NoOp, ConversionKind::RegisterPermute,
          ConversionKind::WarpShuffle, ConversionKind::SharedMemory,
          ConversionKind::SharedPadded}) {
        knockouts.emplace_back("below-" + codegen::toString(kind),
                               codegen::demotionSitesFor(kind));
    }

    Tally direct;
    int shipped = 0;
    for (const auto &path : paths) {
        const auto c = check::readCaseFile(path);
        const auto spec = c.spec();
        const auto name = std::filesystem::path(path).filename().string();
        for (const auto &[label, sites] : knockouts) {
            failpoint::ScopedSet guard(sites);
            expectAgree(c.src, c.dst, c.elemBytes, spec,
                        name + " " + label, direct);
            auto plan = codegen::tryPlanConversion(c.src, c.dst,
                                                   c.elemBytes, spec);
            ASSERT_TRUE(plan.ok()) << name << " " << label;
            if (plan->kind != ConversionKind::WarpShuffle)
                continue;
            EXPECT_EQ(check::diffShuffleTable(
                          *plan->shuffle,
                          check::shuffleTable_reference(c.src, c.dst,
                                                        c.elemBytes, spec)),
                      "")
                << name << " " << label << " (shipped)";
            ++shipped;
        }
    }
    EXPECT_EQ(direct.compared,
              static_cast<int>(paths.size() * knockouts.size()));
    EXPECT_GT(direct.accepted, 0) << "no corpus case plans a shuffle";
    EXPECT_GT(shipped, 0) << "the ladder shipped no shuffle plan";
}

/**
 * A layout holding A's warp-0 elements in other registers and lanes:
 * A's register and lane columns recombined by a random invertible map,
 * A's warp columns kept.
 */
LinearLayout
recombineWithinWarp(const LinearLayout &a, std::mt19937 &rng)
{
    const int regLog = a.getInDimSizeLog2(kReg);
    const int laneLog = a.getInDimSizeLog2(kLane);
    const int warpLog = a.getInDimSizeLog2(kWarp);
    const int dw = regLog + laneLog;
    std::vector<uint64_t> mix;
    f2::EchelonBasis independent;
    while (static_cast<int>(mix.size()) < dw) {
        const uint64_t m = rng() & ((uint64_t(1) << dw) - 1);
        if (independent.insert(m))
            mix.push_back(m);
    }
    std::vector<uint64_t> cols;
    for (uint64_t m : mix) {
        uint64_t col = 0;
        for (int j = 0; j < dw; ++j) {
            if ((m >> j) & 1)
                col ^= a.applyFlat(uint64_t(1) << j);
        }
        cols.push_back(col);
    }
    for (int t = 0; t < warpLog; ++t)
        cols.push_back(a.applyFlat(uint64_t(1) << (dw + t)));
    return LinearLayout::fromColumns(
        {{kReg, regLog}, {kLane, laneLog}, {kWarp, warpLog}},
        a.getOutDims(), std::move(cols), /*requireSurjective=*/true);
}

TEST(ShuffleReference, RandomIntraWarpPairs)
{
    std::mt19937 rng(29);
    Tally tally;
    int drawn = 0;
    while (tally.compared < 2200) {
        ++drawn;
        const auto c = check::randomConversionCase(rng);
        const LinearLayout a = codegen::canonicalIns(c.src);
        if (!a.isInjective() || !a.isSurjective())
            continue; // broadcasting layouts never reach the exchange
        const LinearLayout b = recombineWithinWarp(a, rng);
        ASSERT_TRUE(codegen::conversionIsIntraWarp(a, b));
        expectAgree(a, b, c.elemBytes, c.spec(),
                    "random pair " + std::to_string(tally.compared) +
                        " (" + c.summary + ")",
                    tally);
    }
    // Both outcomes must be exercised for the comparison to mean
    // anything.
    EXPECT_GT(tally.accepted, tally.compared / 10);
    EXPECT_LT(tally.accepted, tally.compared);
    std::printf("[ shuffle  ] %d random intra-warp pairs (%d drawn): "
                "%d accepted\n",
                tally.compared, drawn, tally.accepted);
    for (const auto &[why, n] : tally.rejects)
        std::printf("[ shuffle  ]   %d rejected: %s\n", n, why.c_str());
}

/**
 * A with `swaps` of its lane columns exchanged for as many register
 * columns. Each lane then reads from lane ^ S(round) (an xor
 * butterfly), so these plans count their communicating rounds by the
 * rank of S, which recombined pairs almost never do.
 */
LinearLayout
swapLanesWithRegisters(const LinearLayout &a, int swaps, std::mt19937 &rng)
{
    const int regLog = a.getInDimSizeLog2(kReg);
    const int laneLog = a.getInDimSizeLog2(kLane);
    const int warpLog = a.getInDimSizeLog2(kWarp);
    std::vector<uint64_t> cols;
    for (int j = 0; j < regLog + laneLog + warpLog; ++j)
        cols.push_back(a.applyFlat(uint64_t(1) << j));
    std::vector<int> regs(static_cast<size_t>(regLog));
    std::vector<int> lanes(static_cast<size_t>(laneLog));
    for (int j = 0; j < regLog; ++j)
        regs[static_cast<size_t>(j)] = j;
    for (int t = 0; t < laneLog; ++t)
        lanes[static_cast<size_t>(t)] = regLog + t;
    std::shuffle(regs.begin(), regs.end(), rng);
    std::shuffle(lanes.begin(), lanes.end(), rng);
    for (int k = 0; k < swaps; ++k) {
        std::swap(cols[static_cast<size_t>(regs[static_cast<size_t>(k)])],
                  cols[static_cast<size_t>(lanes[static_cast<size_t>(k)])]);
    }
    return LinearLayout::fromColumns(
        {{kReg, regLog}, {kLane, laneLog}, {kWarp, warpLog}},
        a.getOutDims(), std::move(cols), /*requireSurjective=*/true);
}

TEST(ShuffleReference, RandomLaneRegisterSwaps)
{
    std::mt19937 rng(31);
    Tally tally;
    int partial = 0; // plans with 0 < communicating rounds < rounds
    while (tally.compared < 500) {
        const auto c = check::randomConversionCase(rng);
        const LinearLayout a = codegen::canonicalIns(c.src);
        const int maxSwaps = std::min(a.getInDimSizeLog2(kReg),
                                      a.getInDimSizeLog2(kLane));
        if (!a.isInjective() || !a.isSurjective() || maxSwaps == 0)
            continue;
        const int swaps =
            std::uniform_int_distribution<int>(1, maxSwaps)(rng);
        const LinearLayout b = swapLanesWithRegisters(a, swaps, rng);
        expectAgree(a, b, c.elemBytes, c.spec(),
                    "swap pair " + std::to_string(tally.compared) + " (" +
                        c.summary + ", " + std::to_string(swaps) +
                        " swap(s))",
                    tally);
        auto plan = codegen::planWarpShuffle(a, b, c.elemBytes, c.spec());
        if (plan.ok() && plan->communicatingRounds() > 0 &&
            plan->communicatingRounds() < plan->rounds)
            ++partial;
    }
    EXPECT_GT(partial, 0) << "no plan counts its rounds by the rank of S";
    std::printf("[ shuffle  ] %d lane/register swap pairs: %d accepted, "
                "%d with some local rounds\n",
                tally.compared, tally.accepted, partial);
}

} // namespace
} // namespace ll
