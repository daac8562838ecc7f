/**
 * @file
 * The TritonBench-style kernel suite behind Figure 9 and Table 6.
 *
 * Each builder constructs one CTA tile's worth of a real workload as a
 * mini-IR function: the GEMM family (f16 / fp8 / bf16xint16 / int4 /
 * grouped), the attention kernels whose second dot forces the
 * interesting MMA-output -> MMA-input conversion, the reduction kernels
 * (softmax / welford / layer_norm), and the data-movement kernels
 * (rope / embedding / gather_gemv). Builders are parameterized by a
 * size knob so each kernel contributes several input cases, mirroring
 * TritonBench's multiple inputs per benchmark.
 */

#ifndef LL_BENCH_KERNELS_H
#define LL_BENCH_KERNELS_H

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ir/function.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace kernels {

/** A named kernel builder plus the tile sizes it is evaluated at. */
struct KernelSpec
{
    std::string name;
    std::vector<int32_t> sizes;
    std::function<ir::Function(int32_t)> build;
    /** Some kernels need resources absent on some GPUs (paper Section
     *  6.2: TMA-dependent kernels skip RTX4090/MI250). */
    bool needsTma = false;
    bool needsLargeShared = false;
};

ir::Function gemm(int32_t size);
ir::Function fp8Gemm(int32_t size);
ir::Function bf16xint16Gemm(int32_t size);
ir::Function int4Gemm(int32_t size);
ir::Function groupedGemm(int32_t size);
ir::Function templateAttention(int32_t size);
ir::Function flexAttention(int32_t size);
ir::Function softmax(int32_t size);
ir::Function welford(int32_t size);
ir::Function layerNorm(int32_t size);
ir::Function rope(int32_t size);
ir::Function embedding(int32_t size);
ir::Function gatherGemv(int32_t size);
ir::Function cumsum(int32_t size);

/** The full Figure 9 suite. */
std::vector<KernelSpec> allKernels();

/** Whether Figure 9 runs kernel `k` on `spec`: TMA kernels need TMA,
 *  large-shared kernels at least 128 KiB of shared memory per CTA. */
inline bool
runsOn(const KernelSpec &k, const sim::GpuSpec &spec)
{
    if (k.needsTma && !spec.hasTma)
        return false;
    if (k.needsLargeShared && spec.sharedMemPerCta < 128 * 1024)
        return false;
    return true;
}

/** Table 5's dtype pairs (operand a, operand b), in table order. */
std::vector<std::pair<ir::DType, ir::DType>> mixedPrecisionPairs();

/** The {M, N, K} dot shapes Table 5's cases cycle through: case i of a
 *  pair uses shape i modulo their count. */
const std::vector<std::array<int32_t, 3>> &mixedPrecisionShapes();

/** One Table 5 case: load a (M x K) of dtype `a` and b (K x N) of
 *  dtype `b`, dot them into F32, store the result. */
ir::Function mixedPrecisionDot(ir::DType a, ir::DType b,
                               const std::array<int32_t, 3> &shape);

} // namespace kernels
} // namespace ll

#endif // LL_BENCH_KERNELS_H
