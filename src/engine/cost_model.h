/**
 * @file
 * Kernel-level cost model over an engine-annotated function.
 *
 * Produces the two kinds of numbers the paper's evaluation reports:
 * (a) op-distribution counts — convert_layout / local_load /
 * local_store, as in Table 6 — and (b) modeled execution cycles, which
 * the Figure 9 benchmarks turn into speedups. The model prices global
 * accesses by coalesced 32-byte sectors, conversions by their lowering
 * plan (no-op / permute / shuffles / shared round trips with Lemma 9.4
 * wavefronts), dots by tensor-core throughput, and reductions by shuffle
 * rounds plus an optional cross-warp shared round trip.
 */

#ifndef LL_ENGINE_COST_MODEL_H
#define LL_ENGINE_COST_MODEL_H

#include <string>

#include "ir/function.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace engine {

struct KernelCost
{
    // --- op distribution (Table 6 columns) ----------------------------
    int converts = 0;
    int localLoads = 0;
    int localStores = 0;

    // --- conversion lowering breakdown ---------------------------------
    int noopConversions = 0;
    int permuteConversions = 0;
    int shuffleConversions = 0;
    int sharedConversions = 0;

    // --- modeled execution ---------------------------------------------
    int64_t globalSectors = 0;
    double cycles = 0.0;

    std::string toString() const;
};

/**
 * Price an engine-annotated function on the given GPU model. A
 * ConvertLayout op is priced from the plan LayoutEngine::run attached to
 * it, so `spec` must be the spec of that run and the op's endpoint
 * layouts must be the ones it planned (see ir::Op::plan). An op tagged
 * ir::kUnplannedConvertTag is priced as an unplannable conversion; any
 * other op without a plan is planned here, without a smoke run.
 */
KernelCost estimateKernelCost(const ir::Function &f,
                              const sim::GpuSpec &spec, int numWarps = 4);

} // namespace engine
} // namespace ll

#endif // LL_ENGINE_COST_MODEL_H
