/**
 * @file
 * Table 5: mixed-precision matmul pass rates per dtype pair.
 *
 * For every dtype pair the paper sweeps, we enumerate the same number of
 * shape variants. The Triton-Linear column is *computed*: the layout
 * engine lays out a dot kernel, and every inserted conversion to an MMA
 * input layout is executed on the shared-memory simulator and verified
 * element by element. The legacy column replays the published pass
 * counts (the legacy implementation's failures cannot be re-derived
 * without running it; see DESIGN.md).
 */

#include <benchmark/benchmark.h>

#include <array>

#include "bench_util.h"
#include "codegen/conversion.h"
#include "codegen/shared_exec.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "legacy/legacy.h"

namespace {

using namespace ll;
using ir::DType;

/** Run one dot case end to end under Triton-Linear; returns pass. */
bool
runLinearCase(DType a, DType b, const std::array<int32_t, 3> &shape,
              const sim::GpuSpec &spec)
{
    try {
        ir::Function f = kernels::mixedPrecisionDot(a, b, shape);
        engine::LayoutEngine eng({spec, 4});
        eng.run(f);

        // Verify every shared-memory conversion the engine created.
        for (int i = 0; i < f.numOps(); ++i) {
            const ir::Op &o = f.op(i);
            if (o.erased || o.kind != ir::OpKind::ConvertLayout)
                continue;
            const auto &src = f.value(o.operands[0]);
            const auto &dst = f.value(o.results[0]);
            int elemBytes = byteWidth(src.type.dtype);
            auto plan = codegen::planConversion(*src.layout, *dst.layout,
                                                elemBytes, spec);
            if (plan.kind == codegen::ConversionKind::SharedMemory) {
                if (!codegen::executeSharedConversion(
                         *plan.shared, *src.layout, *dst.layout,
                         elemBytes, spec)
                         .ok())
                    return false;
            }
        }
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * Print the table and record its overall pass rates in `results`:
 * linear_pass_pct, legacy_pass_pct and the case count (cases).
 */
void
printTable(bench::Results &results)
{
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Table 5: mixed-precision matmul pass rates (legacy replayed "
        "from paper; linear verified on simulator)");
    std::printf("%-12s %12s %14s\n", "Data Type", "Triton",
                "Triton-Linear");

    const auto &shapes = kernels::mixedPrecisionShapes();
    int linTotal = 0, linPass = 0, legTotal = 0, legPass = 0;
    for (auto [a, b] : kernels::mixedPrecisionPairs()) {
        auto [lp, lt] = legacy::legacyDotPassCounts(a, b);
        int passed = 0;
        for (int i = 0; i < lt; ++i) {
            auto shape = shapes[static_cast<size_t>(i) % shapes.size()];
            if (runLinearCase(a, b, shape, spec))
                ++passed;
        }
        std::printf("%-4s/%-7s %6d/%-6d %7d/%-6d\n",
                    toString(a).c_str(), toString(b).c_str(), lp, lt,
                    passed, lt);
        linTotal += lt;
        linPass += passed;
        legTotal += lt;
        legPass += lp;
    }
    const double legacyPct = 100.0 * legPass / legTotal;
    const double linearPct = 100.0 * linPass / linTotal;
    std::printf("overall: legacy %.1f%%, linear %.1f%% of %d cases\n",
                legacyPct, linearPct, linTotal);
    results.clear();
    results.emplace_back("linear_pass_pct", linearPct);
    results.emplace_back("legacy_pass_pct", legacyPct);
    results.emplace_back("cases", linTotal);
}

void
BM_MixedPrecisionLayoutEngine(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    for (auto _ : state) {
        ir::Function f =
            kernels::mixedPrecisionDot(DType::I8, DType::F8, {64, 64, 64});
        engine::LayoutEngine eng({spec, 4});
        auto stats = eng.run(f);
        benchmark::DoNotOptimize(stats);
    }
}

BENCHMARK(BM_MixedPrecisionLayoutEngine);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "tab5_mixed_precision", [&results] { printTable(results); },
        results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
