/**
 * @file
 * Table 3: load/store instruction selection — legacy fastest-dim
 * heuristic vs linear-layout cross-dimension contiguity analysis, for
 * [512, k] tensors of f8 and f16, plus the modeled global-memory sector
 * traffic each choice produces.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "codegen/vectorize.h"
#include "legacy/legacy.h"
#include "legacy/legacy_cost.h"
#include "sim/memory_sim.h"

namespace {

using namespace ll;

triton::BlockedEncoding
kernelEncoding(int32_t k, int elemBytes)
{
    triton::BlockedEncoding enc;
    if (k == 1) {
        enc.sizePerThread = {4, 1};
    } else {
        enc.sizePerThread = {std::max(1, 16 / (k * elemBytes)), k};
    }
    enc.threadsPerWarp = {32, 1};
    enc.warpsPerCta = {4, 1};
    enc.order = {1, 0};
    return enc;
}

/**
 * Print the table and record each row's instruction widths in `results`
 * as legacy_bits.f<bits>.k<k> and linear_bits.f<bits>.k<k>.
 */
void
printTable(bench::Results &results)
{
    results.clear();
    bench::printHeader(
        "Table 3: load/store instructions and bitwidths, legacy Triton "
        "vs Triton-Linear");
    std::printf("%-18s %-10s %-10s %8s %8s %10s\n", "Tensor x Type",
                "Triton", "T-Linear", "bits", "bits", "gain");
    for (int elemBits : {8, 16}) {
        for (int32_t k : {1, 2, 4, 8, 16}) {
            auto enc = kernelEncoding(k, elemBits / 8);
            triton::Shape shape = {512, k};
            auto legacyInst =
                legacy::legacyMemoryInstruction(enc, shape, elemBits);
            auto layout = enc.toLinearLayout(shape);
            auto linearInst =
                codegen::selectMemoryInstruction(layout, elemBits);
            double gain = 100.0 *
                          (linearInst.totalBits() -
                           legacyInst.totalBits()) /
                          legacyInst.totalBits();
            std::printf("[512,%2d] x f%-6d %-10s %-10s %8d %8d %9.0f%%\n",
                        k, elemBits, legacyInst.toString().c_str(),
                        linearInst.toString().c_str(),
                        legacyInst.totalBits(), linearInst.totalBits(),
                        gain);
            const std::string row = ".f" + std::to_string(elemBits) +
                                    ".k" + std::to_string(k);
            results.emplace_back("legacy_bits" + row,
                                 legacyInst.totalBits());
            results.emplace_back("linear_bits" + row,
                                 linearInst.totalBits());
        }
    }

    // Sector traffic: same layout, different instruction widths.
    bench::printHeader("Modeled 32B global sectors per CTA load");
    auto spec = sim::GpuSpec::gh200();
    std::printf("%-18s %10s %10s\n", "Tensor x Type", "Triton",
                "T-Linear");
    for (int elemBits : {8, 16}) {
        for (int32_t k : {2, 8}) {
            auto enc = kernelEncoding(k, elemBits / 8);
            triton::Shape shape = {512, k};
            auto layout = enc.toLinearLayout(shape);
            // Linear: instructions sized by true contiguity. Legacy:
            // same data, narrower instructions -> more requests (but
            // sectors coalesce the same); report instruction counts.
            int legacyBits =
                legacy::legacyMemoryInstruction(enc, shape, elemBits)
                    .totalBits();
            int linearBits =
                codegen::selectMemoryInstruction(layout, elemBits)
                    .totalBits();
            int64_t elems = int64_t(shape[0]) * shape[1];
            int64_t legacyInsts = elems * elemBits / legacyBits;
            int64_t linearInsts = elems * elemBits / linearBits;
            std::printf("[512,%2d] x f%-6d %10lld %10lld   "
                        "(load instructions issued)\n",
                        k, elemBits,
                        static_cast<long long>(legacyInsts),
                        static_cast<long long>(linearInsts));
            (void)spec;
        }
    }
}

void
BM_ContiguityAnalysis(benchmark::State &state)
{
    int32_t k = static_cast<int32_t>(state.range(0));
    auto enc = kernelEncoding(k, 1);
    auto layout = enc.toLinearLayout({512, k});
    for (auto _ : state) {
        auto inst = codegen::selectMemoryInstruction(layout, 8);
        benchmark::DoNotOptimize(inst);
    }
}

BENCHMARK(BM_ContiguityAnalysis)->Arg(1)->Arg(4)->Arg(16);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "tab3_contiguity", [&results] { printTable(results); }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
