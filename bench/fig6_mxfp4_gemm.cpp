/**
 * @file
 * Figure 6: MXFP4 mixed-precision matmul — Triton-Linear's data
 * shuffling optimization (Section 5.2) vs legacy Triton, on the GH200
 * model.
 *
 * One operand is mxfp4 (4-bit, 32 elements per 8-bit scale); the other
 * sweeps f8 / bf16 / f16. Without linear layouts, the wgmma register
 * constraint limits mxfp4 loads to 16-bit instructions and the scales
 * are distributed by warp shuffles; with linear layouts the
 * higher-precision operand is pre-shuffled in HBM so the mxfp4 operand
 * loads with 128-bit instructions, the engine derives the scale layout
 * for free, and the f16 case additionally gets the wgmma path the
 * legacy backend missed (the paper's 1.87x series).
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ir/types.h"

namespace {

using namespace ll;
using ir::DType;

struct Cost
{
    double loadA, scales, loadB, dot, epilogue;

    double
    total() const
    {
        return loadA + scales + loadB + dot + epilogue;
    }
};

/** Per-CTA-tile cost of one mxfp4 x other GEMM. */
Cost
tileCost(DType other, int32_t kTotal, bool linear,
         const sim::GpuSpec &spec)
{
    const int32_t m = 128, n = 128;
    const int threads = 4 * spec.warpSize;
    const double issueCyclesPerInst = 2.0; // LSU + shared staging

    Cost c{};
    // --- mxfp4 operand A: [m, kTotal] at 4 bits -----------------------
    double aBytes = double(m) * kTotal / 2.0;
    int loadWidthBits = linear ? 128 : 16; // the data-shuffling win
    double aInsts = aBytes * 8.0 / loadWidthBits / threads;
    // Without the pre-shuffle, the wgmma-imposed register pattern makes
    // the 16-bit accesses strided, halving achieved coalescing.
    double coalescing = linear ? 1.0 : 2.0;
    c.loadA = aInsts * issueCyclesPerInst +
              coalescing * aBytes / 32.0 * spec.globalSectorCycles;

    // --- scales: one e8m0 per 32 elements ------------------------------
    double numScales = double(m) * kTotal / 32.0;
    double scaleBytes = numScales;
    c.scales = scaleBytes / 32.0 * spec.globalSectorCycles;
    if (!linear) {
        // Blocked load + warp-shuffle redistribution (8 rounds per
        // scale group shared by a row of the mma layout).
        c.scales += numScales / threads * 8.0 * spec.shuffleCycles;
    }

    // --- other operand B ------------------------------------------------
    double bBytes = double(n) * kTotal * byteWidth(other);
    c.loadB = bBytes * 8.0 / 128.0 / threads * issueCyclesPerInst +
              bBytes / 32.0 * spec.globalSectorCycles;

    // --- tensor cores ----------------------------------------------------
    double macs = double(m) * n * kTotal;
    double macsPerCycle = 4.0 * spec.mmaMacsPerCyclePerWarp;
    if (!linear && other == DType::F16) {
        // Legacy missed wgmma for f16 mixed precision: mma at half
        // throughput (the issue fixed by Triton-Linear).
        macsPerCycle /= 2.0;
    }
    c.dot = macs / macsPerCycle;

    // --- upcast + store --------------------------------------------------
    c.epilogue = double(m) * kTotal / threads / 2.0 +
                 double(m) * n * 2.0 / 32.0 * spec.globalSectorCycles;
    return c;
}

/** Print the figure and record each speedup in `results`
 *  (`speedup.<series>.<size>`). */
void
printTable(bench::Results &results)
{
    results.clear();
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Figure 6: MXFP4 matmul speedups from data shuffling "
        "(Triton-Linear vs Triton, GH200 model)");
    std::printf("%-10s %10s %12s %12s %9s\n", "dtype", "M=N=K",
                "linear cyc", "legacy cyc", "speedup");
    const std::pair<DType, const char *> dtypes[] = {
        {DType::F8, "mxfp4xf8"},
        {DType::BF16, "mxfp4xbf16"},
        {DType::F16, "mxfp4xf16"},
    };
    for (auto [dt, name] : dtypes) {
        for (int32_t size : {1024, 2048, 4096, 8192}) {
            Cost lin = tileCost(dt, size, true, spec);
            Cost leg = tileCost(dt, size, false, spec);
            const double speedup = leg.total() / lin.total();
            std::printf("%-10s %10d %12.0f %12.0f %8.2fx\n", name, size,
                        lin.total(), leg.total(), speedup);
            results.emplace_back(
                std::string("speedup.") + name + "." + std::to_string(size),
                speedup);
        }
    }
    std::printf("(f16 series adds the wgmma fix on top of wider mxfp4 "
                "loads)\n");
}

void
BM_Mxfp4CostModel(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    for (auto _ : state) {
        Cost lin = tileCost(DType::F16,
                            static_cast<int32_t>(state.range(0)), true,
                            spec);
        benchmark::DoNotOptimize(lin);
    }
    Cost lin = tileCost(DType::F16,
                        static_cast<int32_t>(state.range(0)), true, spec);
    Cost leg = tileCost(DType::F16,
                        static_cast<int32_t>(state.range(0)), false,
                        spec);
    state.counters["speedup"] = leg.total() / lin.total();
}

BENCHMARK(BM_Mxfp4CostModel)->Arg(2048)->Arg(8192);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "fig6_mxfp4_gemm", [&results] { printTable(results); }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
