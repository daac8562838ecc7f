/**
 * @file
 * Figure 9: real-kernel speedups of Triton-Linear over legacy Triton on
 * the RTX4090, GH200, and MI250 models.
 *
 * Every kernel from the TritonBench-style suite is laid out by the
 * linear-layout engine, then priced twice: once with the linear-layout
 * lowerings (no-op detection, register permutes, warp shuffles, optimal
 * swizzles, ldmatrix/stmatrix where the platform has them) and once
 * under the legacy rules (every conversion through padded shared
 * memory, fastest-dim vectorization, duplicate stores). As in the
 * paper, TMA-dependent kernels only run on GH200 and large-shared
 * kernels skip the consumer GPU.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "legacy/legacy_cost.h"
#include "service/plan_cache.h"

namespace {

using namespace ll;

struct Result
{
    double minSpeedup = 1e9, maxSpeedup = 0, geo = 0;
    int cases = 0;
};

/**
 * LL_FIG9_KERNELS: comma-separated kernel-name subset for the table
 * and plan-cache passes. Empty/unset runs the full suite; a subset
 * keeps profiling runs short.
 */
bool
kernelSelected(const kernels::KernelSpec &k)
{
    const char *env = std::getenv("LL_FIG9_KERNELS");
    if (env == nullptr || *env == '\0')
        return true;
    const std::string list(env);
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        if (list.compare(pos, comma - pos, k.name) == 0)
            return true;
        pos = comma + 1;
    }
    return false;
}

/**
 * Print the per-kernel table and its per-platform geomeans, and record
 * each platform's geomean and case count in `results` as
 * geomean.<platform> / cases.<platform> (platforms with no case are
 * left out).
 */
void
printTable(bench::Results &results)
{
    const sim::GpuSpec specs[] = {sim::GpuSpec::rtx4090(),
                                  sim::GpuSpec::gh200(),
                                  sim::GpuSpec::mi250()};
    bench::printHeader(
        "Figure 9: Triton-Linear speedup over legacy Triton, "
        "per kernel and platform (modeled)");
    auto suite = kernels::allKernels();
    std::printf("%-20s", "kernel");
    for (const auto &spec : specs)
        std::printf(" %14s", spec.name.c_str());
    std::printf("   (min..max over inputs)\n");

    std::vector<double> platformGeo(3, 0.0);
    std::vector<int> platformCases(3, 0);
    for (const auto &k : suite) {
        if (!kernelSelected(k))
            continue;
        std::printf("%-20s", k.name.c_str());
        for (size_t p = 0; p < 3; ++p) {
            const auto &spec = specs[p];
            if (!kernels::runsOn(k, spec)) {
                std::printf(" %14s", "n/a");
                continue;
            }
            Result r;
            for (int32_t size : k.sizes) {
                ir::Function f = k.build(size);
                engine::LayoutEngine eng({spec, 4});
                eng.run(f);
                auto lin = engine::estimateKernelCost(f, spec, 4);
                auto leg = legacy::estimateLegacyKernelCost(f, spec, 4);
                double speedup = leg.cycles / std::max(lin.cycles, 1.0);
                r.minSpeedup = std::min(r.minSpeedup, speedup);
                r.maxSpeedup = std::max(r.maxSpeedup, speedup);
                r.geo += std::log(speedup);
                ++r.cases;
                platformGeo[p] += std::log(speedup);
                ++platformCases[p];
            }
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.2f..%.2f", r.minSpeedup,
                          r.maxSpeedup);
            std::printf(" %14s", buf);
        }
        std::printf("\n");
    }
    std::printf("%-20s", "geomean");
    results.clear();
    for (size_t p = 0; p < 3; ++p) {
        const double geomean = std::exp(platformGeo[p] / platformCases[p]);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3fx", geomean);
        std::printf(" %14s", buf);
        if (platformCases[p] == 0)
            continue;
        std::string platform = specs[p].name;
        std::transform(platform.begin(), platform.end(), platform.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        results.emplace_back("geomean." + platform, geomean);
        results.emplace_back("cases." + platform, platformCases[p]);
    }
    std::printf("   over %d+%d+%d cases\n", platformCases[0],
                platformCases[1], platformCases[2]);
}

/**
 * Plan-cache amortization over the suite: a second engine pass against
 * a shared service::PlanCache serves the conversions the first pass
 * planned, which is the compilation-service deployment story (llserve
 * measures the same effect under a thread pool).
 */
void
printPlanCacheAmortization()
{
    bench::printHeader(
        "Plan-cache amortization: two engine passes over the suite "
        "(GH200, shared service::PlanCache)");
    service::PlanCache cache;
    engine::EngineOptions options;
    options.planCache = &cache;
    engine::EngineStats pass1, pass2;
    for (int pass = 0; pass < 2; ++pass) {
        engine::EngineStats &total = pass == 0 ? pass1 : pass2;
        for (const auto &k : kernels::allKernels()) {
            if (!kernelSelected(k))
                continue;
            for (int32_t size : k.sizes) {
                ir::Function f = k.build(size);
                engine::LayoutEngine eng{options};
                auto stats = eng.run(f);
                total.convertsPlanned += stats.convertsPlanned;
                total.planCacheHits += stats.planCacheHits;
                total.planCacheMisses += stats.planCacheMisses;
            }
        }
    }
    std::printf("%-8s %10s %10s %10s\n", "pass", "planned", "cache-hit",
                "cache-miss");
    std::printf("%-8s %10d %10d %10d\n", "cold", pass1.convertsPlanned,
                pass1.planCacheHits, pass1.planCacheMisses);
    std::printf("%-8s %10d %10d %10d\n", "warm", pass2.convertsPlanned,
                pass2.planCacheHits, pass2.planCacheMisses);
    const int looks = pass2.planCacheHits + pass2.planCacheMisses;
    std::printf("warm-pass hit rate: %.1f%% (%lld cached plan(s) "
                "resident)\n",
                looks > 0 ? 100.0 * pass2.planCacheHits / looks : 0.0,
                static_cast<long long>(cache.size()));
}

/**
 * LL_FIG9_SYNTH: set (to anything but "0") to also run the suite with
 * EngineOptions::synthesizeLayouts on and report it against the
 * synth-off baseline — the paper-style converts_eliminated / total
 * cycles measurement the ISSUE tracks against the 52/344 propagation
 * baseline. Off by default; the fig9_synth_smoke ctest sets it and
 * enforces the emitted counters (strictly more conversions eliminated,
 * never more cycles on any kernel).
 */
bool
synthRequested()
{
    const char *env = std::getenv("LL_FIG9_SYNTH");
    return env != nullptr && *env != '\0' &&
           std::string(env) != "0";
}

void
printSynthComparison()
{
    const sim::GpuSpec specs[] = {sim::GpuSpec::rtx4090(),
                                  sim::GpuSpec::gh200(),
                                  sim::GpuSpec::mi250()};
    bench::printHeader(
        "Layout synthesis vs default propagation: conversions "
        "eliminated and modeled cycles (all platforms)");
    std::printf("%-20s %-9s %12s %12s %14s %14s\n", "kernel", "spec",
                "elim(off)", "elim(on)", "cycles(off)", "cycles(on)");

    long long offElim = 0, onElim = 0, synthElim = 0, offInserted = 0;
    double offCycles = 0.0, onCycles = 0.0;
    int kernelsWorse = 0;
    for (const auto &spec : specs) {
        // One shared cache per platform across both passes: plans are
        // pure functions of (src, dst, bytes, spec). Each compile's
        // synthesis search, trials and shipped pass all plan through
        // it, so a pair is planned once per platform.
        service::PlanCache cache;
        for (const auto &k : kernels::allKernels()) {
            if (!kernelSelected(k) || !kernels::runsOn(k, spec))
                continue;
            int kOffElim = 0, kOnElim = 0;
            double kOffCycles = 0.0, kOnCycles = 0.0;
            for (int32_t size : k.sizes) {
                engine::EngineOptions off;
                off.spec = spec;
                off.planCache = &cache;
                engine::EngineOptions on = off;
                on.synthesizeLayouts = true;

                ir::Function fOff = k.build(size);
                auto sOff = engine::LayoutEngine{off}.run(fOff);
                auto cOff = engine::estimateKernelCost(fOff, spec, 4);
                ir::Function fOn = k.build(size);
                auto sOn = engine::LayoutEngine{on}.run(fOn);
                auto cOn = engine::estimateKernelCost(fOn, spec, 4);

                kOffElim += sOff.convertsEliminated;
                kOnElim += sOn.convertsEliminated;
                synthElim += sOn.synthConvertsEliminated;
                offInserted += sOff.convertsInserted;
                kOffCycles += cOff.cycles;
                kOnCycles += cOn.cycles;
            }
            offElim += kOffElim;
            onElim += kOnElim;
            offCycles += kOffCycles;
            onCycles += kOnCycles;
            const bool worse = kOnCycles > kOffCycles + 1e-6;
            kernelsWorse += worse;
            std::printf("%-20s %-9s %12d %12d %14.0f %14.0f%s\n",
                        k.name.c_str(), spec.name.c_str(), kOffElim,
                        kOnElim, kOffCycles, kOnCycles,
                        worse ? "  WORSE" : "");
        }
    }
    std::printf("total: eliminated %lld/%lld -> %lld/%lld "
                "(+%lld from synthesis), cycles %.0f -> %.0f, "
                "%d kernel(s) worse\n",
                offElim, offInserted, onElim, offInserted, synthElim,
                offCycles, onCycles, kernelsWorse);

    // The machine-readable contract: fig9_synth_smoke and llprof
    // --gate read these out of BENCH_fig9_real_kernels.json. The
    // eliminated partition (propagation + synthesis) must sum — llstat
    // --validate-bench-json checks it.
    metrics::counter("synth.fig9.baseline_converts_eliminated")
        .add(offElim);
    metrics::counter("synth.fig9.converts_eliminated").add(onElim);
    metrics::counter("synth.fig9.propagation_eliminated")
        .add(onElim - synthElim);
    metrics::counter("synth.fig9.synth_eliminated").add(synthElim);
    metrics::counter("synth.fig9.baseline_cycles")
        .add(static_cast<int64_t>(std::llround(offCycles)));
    metrics::counter("synth.fig9.cycles")
        .add(static_cast<int64_t>(std::llround(onCycles)));
    metrics::counter("synth.fig9.kernels_worse").add(kernelsWorse);
}

void
BM_EngineOnKernel(benchmark::State &state)
{
    auto suite = kernels::allKernels();
    const auto &k = suite[static_cast<size_t>(state.range(0))];
    auto spec = sim::GpuSpec::gh200();
    for (auto _ : state) {
        ir::Function f = k.build(k.sizes[0]);
        engine::LayoutEngine eng({spec, 4});
        auto stats = eng.run(f);
        benchmark::DoNotOptimize(stats);
    }
    state.SetLabel(k.name);
}

BENCHMARK(BM_EngineOnKernel)->Arg(0)->Arg(5)->Arg(8);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "fig9_real_kernels",
        [&results] {
            printTable(results);
            printPlanCacheAmortization();
            if (synthRequested())
                printSynthComparison();
        },
        results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
