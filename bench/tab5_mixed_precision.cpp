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
#include "legacy/legacy.h"

namespace {

using namespace ll;
using ir::DType;

const std::vector<std::array<int32_t, 3>> kBaseShapes = {
    {16, 16, 32},   {32, 32, 32},  {16, 8, 32},   {64, 64, 64},
    {32, 16, 128},  {8, 8, 32},    {128, 128, 64}, {16, 16, 64},
    {64, 32, 32},   {32, 64, 64},  {16, 32, 32},  {64, 16, 64},
};

/** Run one dot case end to end under Triton-Linear; returns pass. */
bool
runLinearCase(DType a, DType b, const std::array<int32_t, 3> &shape,
              const sim::GpuSpec &spec)
{
    try {
        ir::Function f("dot");
        int va = f.load({a, {shape[0], shape[2]}});
        int vb = f.load({b, {shape[2], shape[1]}});
        int acc = f.dot(va, vb, DType::F32);
        f.store(acc);
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

void
printTable()
{
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Table 5: mixed-precision matmul pass rates (legacy replayed "
        "from paper; linear verified on simulator)");
    std::printf("%-12s %12s %14s\n", "Data Type", "Triton",
                "Triton-Linear");

    const std::pair<DType, DType> pairs[] = {
        {DType::I16, DType::F16}, {DType::I16, DType::F32},
        {DType::I16, DType::F64}, {DType::I16, DType::F8},
        {DType::I32, DType::F16}, {DType::I32, DType::F64},
        {DType::I32, DType::F8},  {DType::I64, DType::F16},
        {DType::I64, DType::F32}, {DType::I64, DType::F8},
        {DType::I8, DType::F16},  {DType::I8, DType::F32},
        {DType::I8, DType::F64},  {DType::I8, DType::F8},
    };
    int linTotal = 0, linPass = 0, legTotal = 0, legPass = 0;
    for (auto [a, b] : pairs) {
        auto [lp, lt] = legacy::legacyDotPassCounts(a, b);
        int passed = 0;
        for (int i = 0; i < lt; ++i) {
            auto shape = kBaseShapes[static_cast<size_t>(i) %
                                     kBaseShapes.size()];
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
    std::printf("overall: legacy %.1f%%, linear %.1f%% of %d cases\n",
                100.0 * legPass / legTotal, 100.0 * linPass / linTotal,
                linTotal);
}

void
BM_MixedPrecisionLayoutEngine(benchmark::State &state)
{
    auto spec = sim::GpuSpec::gh200();
    for (auto _ : state) {
        ir::Function f("dot");
        int va = f.load({DType::I8, {64, 64}});
        int vb = f.load({DType::F8, {64, 64}});
        int acc = f.dot(va, vb, DType::F32);
        f.store(acc);
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
    ll::bench::emitBenchJson("tab5_mixed_precision", [] { printTable(); });
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
