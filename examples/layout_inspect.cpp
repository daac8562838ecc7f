/**
 * @file
 * layout_inspect — a small CLI for exploring layouts and conversions.
 *
 * Usage:
 *   layout_inspect blocked  <M> <N> <sptM> <sptN> <tpwM> <tpwN> \
 *                           <wpcM> <wpcN> <order0> <order1>
 *   layout_inspect mma      <M> <N> <version> <warpsM> <warpsN>
 *   layout_inspect convert  <M> <N> <elemBytes>
 *       (plans a conversion between a row-blocked and a column-blocked
 *        layout of the given tile and prints the chosen lowering)
 *
 * With no arguments, prints a demonstration of each mode.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "codegen/conversion.h"
#include "codegen/swizzle.h"
#include "codegen/vectorize.h"
#include "triton/encodings.h"

using namespace ll;

namespace {

void
describe(const LinearLayout &layout, int elemBits)
{
    std::printf("%s", layout.toString().c_str());
    std::printf("surjective=%d injective=%d distributed=%d\n",
                layout.isSurjective(), layout.isInjective(),
                triton::isDistributedLayout(layout));
    std::printf("consecutive elements=%d -> %s\n",
                layout.getNumConsecutiveInOut(),
                codegen::selectMemoryInstruction(layout, elemBits)
                    .toString()
                    .c_str());
    auto masks = layout.getFreeVariableMasks();
    for (const auto &[dim, mask] : masks) {
        if (mask != 0)
            std::printf("broadcast bits in %s: mask 0x%x\n", dim.c_str(),
                        mask);
    }
    std::printf("\n");
}

int
runBlocked(int argc, char **argv)
{
    if (argc < 12) {
        std::fprintf(stderr, "blocked needs 10 numeric arguments\n");
        return 2;
    }
    auto n = [&](int i) { return std::atoi(argv[i]); };
    triton::BlockedEncoding enc;
    enc.sizePerThread = {n(4), n(5)};
    enc.threadsPerWarp = {n(6), n(7)};
    enc.warpsPerCta = {n(8), n(9)};
    enc.order = {n(10), n(11)};
    describe(enc.toLinearLayout({n(2), n(3)}), 16);
    return 0;
}

int
runMma(int argc, char **argv)
{
    if (argc < 7) {
        std::fprintf(stderr, "mma needs 5 numeric arguments\n");
        return 2;
    }
    auto n = [&](int i) { return std::atoi(argv[i]); };
    triton::MmaEncoding enc;
    enc.version = n(4);
    enc.warpsPerCta = {n(5), n(6)};
    describe(enc.toLinearLayout({n(2), n(3)}), 32);
    return 0;
}

int
runConvert(int32_t m, int32_t nCols, int elemBytes)
{
    auto spec = sim::GpuSpec::gh200();
    triton::BlockedEncoding rowEnc, colEnc;
    rowEnc.sizePerThread = {1, 4};
    rowEnc.threadsPerWarp = {8, 4};
    rowEnc.warpsPerCta = {2, 2};
    rowEnc.order = {1, 0};
    colEnc.sizePerThread = {4, 1};
    colEnc.threadsPerWarp = {4, 8};
    colEnc.warpsPerCta = {2, 2};
    colEnc.order = {0, 1};
    auto src = rowEnc.toLinearLayout({m, nCols});
    auto dst = colEnc.toLinearLayout({m, nCols});
    auto plan = codegen::planConversion(src, dst, elemBytes, spec);
    std::printf("conversion [%d x %d] x %dB: %s\n", m, nCols, elemBytes,
                codegen::toString(plan.kind).c_str());
    if (plan.kind == codegen::ConversionKind::WarpShuffle) {
        std::printf("  rounds=%d payload=%d elems shuffles=%lld\n",
                    plan.shuffle->rounds, plan.shuffle->vecElems,
                    static_cast<long long>(
                        plan.shuffle->countShuffleInstructions(
                            elemBytes)));
    }
    if (plan.kind == codegen::ConversionKind::SharedMemory) {
        std::printf("  vec=%d elems, store/load wavefronts per access = "
                    "%lld/%lld, ldmatrix=%d stmatrix=%d\n",
                    plan.shared->vecElems(),
                    static_cast<long long>(codegen::analyticWavefronts(
                        *plan.shared, src, elemBytes, spec)),
                    static_cast<long long>(codegen::analyticWavefronts(
                        *plan.shared, dst, elemBytes, spec)),
                    plan.usesLdmatrix, plan.usesStmatrix);
    }
    std::printf("  modeled cycles: %.0f\n",
                plan.estimateCycles(src, elemBytes, spec));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("== demo: blocked layout (Figure 1a) ==\n");
        triton::BlockedEncoding enc;
        enc.sizePerThread = {2, 2};
        enc.threadsPerWarp = {4, 8};
        enc.warpsPerCta = {2, 1};
        enc.order = {1, 0};
        describe(enc.toLinearLayout({16, 16}), 16);
        std::printf("== demo: conversion planning ==\n");
        runConvert(32, 64, 2);
        std::printf("\nrun with 'blocked', 'mma', or 'convert' for "
                    "custom parameters (see file header)\n");
        return 0;
    }
    std::string mode = argv[1];
    if (mode == "blocked")
        return runBlocked(argc, argv);
    if (mode == "mma")
        return runMma(argc, argv);
    if (mode == "convert" && argc >= 5)
        return runConvert(std::atoi(argv[2]), std::atoi(argv[3]),
                          std::atoi(argv[4]));
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
}
