/**
 * @file
 * Discover the optimal shared-memory swizzle for an fp8 tile transpose
 * (the Figure 2 workload), execute the conversion on the simulated GPU,
 * and compare bank-conflict wavefronts against the padding heuristic.
 *
 *   $ ./examples/transpose_kernel
 */

#include <cstdio>

#include "codegen/shared_exec.h"
#include "codegen/swizzle.h"
#include "legacy/legacy.h"
#include "triton/encodings.h"

using namespace ll;

int
main()
{
    auto spec = sim::GpuSpec::gh200();
    const triton::Shape shape = {64, 64};

    // Writer: each thread stores 16 consecutive f8 values of a row.
    triton::BlockedEncoding rowEnc;
    rowEnc.sizePerThread = {1, 16};
    rowEnc.threadsPerWarp = {2, 16};
    rowEnc.warpsPerCta = {2, 2};
    rowEnc.order = {1, 0};
    // Reader: each thread loads 16 consecutive values of a column.
    triton::BlockedEncoding colEnc;
    colEnc.sizePerThread = {16, 1};
    colEnc.threadsPerWarp = {16, 2};
    colEnc.warpsPerCta = {2, 2};
    colEnc.order = {0, 1};

    LinearLayout src = rowEnc.toLinearLayout(shape);
    LinearLayout dst = colEnc.toLinearLayout(shape);

    auto swz = codegen::computeOptimalSwizzle(src, dst, 1, spec);
    std::printf("optimal swizzle: vec=%d elems, bank bits=%d, segment "
                "bits=%d\n",
                swz.vecElems(), swz.bankBits, swz.idxBits);
    std::printf("memory layout (offset -> tensor):\n%s\n",
                swz.memLayout.toString().c_str());

    int64_t storeWf = codegen::analyticWavefronts(swz, src, 1, spec);
    int64_t loadWf = codegen::analyticWavefronts(swz, dst, 1, spec);
    std::printf("swizzle wavefronts per access: store=%lld load=%lld\n",
                static_cast<long long>(storeWf),
                static_cast<long long>(loadWf));

    auto padded = legacy::paddedConversionCost(src, dst, shape, 1, spec);
    std::printf("padding heuristic: store=%lld load=%lld wavefronts, "
                "%lld bytes of shared memory (+%lld wasted)\n",
                static_cast<long long>(padded.storeWavefronts),
                static_cast<long long>(padded.loadWavefronts),
                static_cast<long long>(padded.sharedBytes),
                static_cast<long long>(padded.sharedBytes -
                                       int64_t(64) * 64));

    auto resultOr = codegen::executeSharedConversion(swz, src, dst, 1,
                                                     spec);
    if (!resultOr.ok()) {
        std::printf("\nsimulated conversion FAILED: %s\n",
                    resultOr.diag().toString().c_str());
        return 1;
    }
    auto &result = *resultOr;
    std::printf("\nsimulated conversion: every element landed correctly\n");
    std::printf("measured store wavefronts=%lld transactions=%lld\n",
                static_cast<long long>(result.storeStats.wavefronts),
                static_cast<long long>(result.storeStats.transactions));
    std::printf("measured load  wavefronts=%lld transactions=%lld\n",
                static_cast<long long>(result.loadStats.wavefronts),
                static_cast<long long>(result.loadStats.transactions));
    return 0;
}
