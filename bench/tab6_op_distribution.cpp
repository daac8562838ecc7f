/**
 * @file
 * Table 6: distribution of shared-memory (local_load / local_store) and
 * convert_layout operations per real kernel, as produced by the layout
 * engine on the GH200 model — the evidence that the Figure 9 gains come
 * from optimizing these operations. Also breaks down how each
 * conversion was lowered, which legacy Triton cannot do at all.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "kernels.h"

namespace {

using namespace ll;

/**
 * Print the table and record welford's #Convert in `results` as
 * converts.welford (the paper reports no conversion in it).
 */
void
printTable(bench::Results &results)
{
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Table 6: local memory and convert_layout op distribution "
        "(GH200 model, largest input)");
    std::printf("%-20s %7s %8s %9s   %s\n", "kernel", "#Load", "#Store",
                "#Convert", "lowering (noop/permute/shuffle/shared)");
    int welfordConverts = -1;
    for (const auto &k : kernels::allKernels()) {
        ir::Function f = k.build(k.sizes.back());
        engine::LayoutEngine eng({spec, 4});
        eng.run(f);
        auto cost = engine::estimateKernelCost(f, spec, 4);
        std::printf("%-20s %7d %8d %9d   %d/%d/%d/%d\n", k.name.c_str(),
                    cost.localLoads, cost.localStores, cost.converts,
                    cost.noopConversions, cost.permuteConversions,
                    cost.shuffleConversions, cost.sharedConversions);
        if (k.name == "welford")
            welfordConverts = cost.converts;
    }
    std::printf("(#Load/#Store include reduction partials and dot "
                "operand staging)\n");
    results.clear();
    if (welfordConverts >= 0)
        results.emplace_back("converts.welford", welfordConverts);
}

void
BM_CostModelOnKernel(benchmark::State &state)
{
    auto suite = kernels::allKernels();
    const auto &k = suite[static_cast<size_t>(state.range(0))];
    auto spec = sim::GpuSpec::gh200();
    ir::Function f = k.build(k.sizes[0]);
    engine::LayoutEngine eng({spec, 4});
    eng.run(f);
    for (auto _ : state) {
        auto cost = engine::estimateKernelCost(f, spec, 4);
        benchmark::DoNotOptimize(cost);
    }
    state.SetLabel(k.name);
}

BENCHMARK(BM_CostModelOnKernel)->Arg(0)->Arg(5);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "tab6_op_distribution", [&results] { printTable(results); },
        results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
