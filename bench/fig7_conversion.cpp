/**
 * @file
 * Figure 7: layout conversion speedups — warp shuffles vs the legacy
 * always-through-shared-memory path, across tensor sizes and dtypes.
 *
 * Source and destination are blocked layouts with identical warp tiling
 * but different thread/register assignment, so the conversion map
 * B^-1 . A fixes warps and the Section 5.4 shuffle plan applies. Legacy
 * Triton cannot detect this and round-trips through padded shared
 * memory. Every shuffle plan is executed on the simulator and verified
 * element by element before being priced.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "codegen/conversion.h"
#include "legacy/legacy.h"

namespace {

using namespace ll;
using bench::makeBlocked;

struct ConvCase
{
    LinearLayout src, dst;
    triton::Shape shape;
};

/** A conversion with matched warp tiles: rows-of-registers to
 *  columns-of-registers within each warp. */
ConvCase
makeCase(int32_t rows, int32_t cols)
{
    ConvCase c;
    c.shape = {rows, cols};
    c.src = makeBlocked({1, 8}, {8, 4}, {2, 2}, {1, 0}, c.shape);
    c.dst = makeBlocked({8, 1}, {1, 32}, {2, 2}, {1, 0}, c.shape);
    return c;
}

bool
shuffleRoutesEveryElement(const ConvCase &c,
                          const codegen::WarpShufflePlan &plan)
{
    const int regLog = c.src.getInDimSizeLog2("register");
    std::vector<std::vector<uint64_t>> regs(
        static_cast<size_t>(plan.warpSize));
    for (int lane = 0; lane < plan.warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegsA; ++reg) {
            regs[static_cast<size_t>(lane)].push_back(c.src.applyFlat(
                static_cast<uint64_t>(reg) |
                (static_cast<uint64_t>(lane) << regLog)));
        }
    }
    auto outOr = plan.execute(regs);
    if (!outOr.ok())
        return false;
    auto &out = *outOr;
    const int dstRegLog = c.dst.getInDimSizeLog2("register");
    for (int lane = 0; lane < plan.warpSize; ++lane) {
        for (int reg = 0; reg < plan.numRegsB; ++reg) {
            uint64_t want = c.dst.applyFlat(
                static_cast<uint64_t>(reg) |
                (static_cast<uint64_t>(lane) << dstRegLog));
            if (out[static_cast<size_t>(lane)][static_cast<size_t>(reg)] !=
                want) {
                return false;
            }
        }
    }
    return true;
}

/** Print the figure and record its headline values in `results`: the
 *  speedup of every case (`speedup.<rows>x<cols>.<dtype>`), the case
 *  count (`cases`) and how many cases lowered to a warp-shuffle plan
 *  that verified on the simulator (`verified_shuffles`). */
void
printTable(bench::Results &results)
{
    results.clear();
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Figure 7: layout conversion, warp shuffles vs legacy shared "
        "memory (speedup, GH200 model)");
    std::printf("%-14s %8s %18s %12s %12s %9s %7s\n", "shape", "dtype",
                "lowering", "linear cyc", "legacy cyc", "speedup",
                "check");
    const std::pair<int, const char *> dtypes[] = {
        {1, "f8"}, {2, "f16"}, {4, "f32"}};
    int cases = 0;
    int verifiedShuffles = 0;
    for (int32_t rows : {16, 32, 64, 128}) {
        for (int32_t cols : {64, 128, 256}) {
            for (auto [elemBytes, name] : dtypes) {
                auto c = makeCase(rows, cols);
                auto plan = codegen::planConversion(c.src, c.dst,
                                                    elemBytes, spec);
                double linearCycles =
                    plan.estimateCycles(c.src, elemBytes, spec);
                auto padded = legacy::paddedConversionCost(
                    c.src, c.dst, c.shape, elemBytes, spec);
                const bool shuffle =
                    plan.kind == codegen::ConversionKind::WarpShuffle;
                bool ok = true;
                if (shuffle)
                    ok = shuffleRoutesEveryElement(c, *plan.shuffle);
                const double speedup = padded.cycles / linearCycles;
                std::printf("[%4d,%4d]   %8s %18s %12.0f %12.0f %8.2fx"
                            " %6s\n",
                            rows, cols, name,
                            toString(plan.kind).c_str(), linearCycles,
                            padded.cycles, speedup, ok ? "PASS" : "FAIL");
                ++cases;
                verifiedShuffles += shuffle && ok;
                results.emplace_back("speedup." + std::to_string(rows) +
                                         "x" + std::to_string(cols) + "." +
                                         name,
                                     speedup);
            }
        }
    }
    results.emplace_back("cases", cases);
    results.emplace_back("verified_shuffles", verifiedShuffles);
}

void
BM_ShufflePlanAndExecute(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    auto c = makeCase(static_cast<int32_t>(state.range(0)),
                      static_cast<int32_t>(state.range(1)));
    auto plan = codegen::planWarpShuffle(c.src, c.dst, 2, spec);
    if (!plan.has_value()) {
        state.SkipWithError("no shuffle plan");
        return;
    }
    std::vector<std::vector<uint64_t>> regs(
        static_cast<size_t>(plan->warpSize),
        std::vector<uint64_t>(static_cast<size_t>(plan->numRegsA), 1));
    for (auto _ : state) {
        auto out = plan->execute(regs);
        benchmark::DoNotOptimize(out);
    }
    state.counters["shuffle_instructions"] = static_cast<double>(
        plan->countShuffleInstructions(2));
}

BENCHMARK(BM_ShufflePlanAndExecute)
    ->Args({32, 64})
    ->Args({64, 128})
    ->Args({128, 256});

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "fig7_conversion", [&results] { printTable(results); }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
