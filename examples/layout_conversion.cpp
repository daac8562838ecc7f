/**
 * @file
 * Plan a warp-shuffle layout conversion (Section 5.4), execute it on a
 * simulated warp, and verify that every element reaches the register
 * the destination layout demands — all without touching shared memory.
 *
 *   $ ./examples/layout_conversion
 */

#include <cstdio>

#include "codegen/conversion.h"
#include "triton/encodings.h"

using namespace ll;

int
main()
{
    auto spec = sim::GpuSpec::gh200();
    const triton::Shape shape = {8, 32};

    // Source: each thread owns 8 contiguous elements of a row.
    triton::BlockedEncoding srcEnc;
    srcEnc.sizePerThread = {1, 8};
    srcEnc.threadsPerWarp = {8, 4};
    srcEnc.warpsPerCta = {1, 1};
    srcEnc.order = {1, 0};
    // Destination: each thread owns a column.
    triton::BlockedEncoding dstEnc;
    dstEnc.sizePerThread = {8, 1};
    dstEnc.threadsPerWarp = {1, 32};
    dstEnc.warpsPerCta = {1, 1};
    dstEnc.order = {1, 0};

    LinearLayout src = srcEnc.toLinearLayout(shape);
    LinearLayout dst = dstEnc.toLinearLayout(shape);

    auto plan = codegen::planConversion(src, dst, /*elemBytes=*/2, spec);
    std::printf("chosen lowering: %s\n",
                codegen::toString(plan.kind).c_str());
    if (plan.kind != codegen::ConversionKind::WarpShuffle) {
        std::printf("expected a warp-shuffle plan\n");
        return 1;
    }
    const auto &shuffle = *plan.shuffle;
    std::printf("rounds=%d, payload=%d elements, shuffle instructions="
                "%lld\n",
                shuffle.rounds, shuffle.vecElems,
                static_cast<long long>(
                    shuffle.countShuffleInstructions(2)));

    // Seed each register with its element id under the source layout.
    std::vector<std::vector<uint64_t>> regs(32);
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < shuffle.numRegsA; ++reg) {
            regs[lane].push_back(src.applyFlat(
                static_cast<uint64_t>(reg) |
                (static_cast<uint64_t>(lane)
                 << src.getInDimSizeLog2("register"))));
        }
    }
    auto outOr = shuffle.execute(regs);
    if (!outOr.ok()) {
        std::printf("shuffle execution failed: %s\n",
                    outOr.diag().toString().c_str());
        return 1;
    }
    auto &out = *outOr;

    // Verify against the destination layout.
    int errors = 0;
    for (int lane = 0; lane < 32; ++lane) {
        for (int reg = 0; reg < shuffle.numRegsB; ++reg) {
            uint64_t want = dst.applyFlat(
                static_cast<uint64_t>(reg) |
                (static_cast<uint64_t>(lane)
                 << dst.getInDimSizeLog2("register")));
            if (out[lane][reg] != want)
                ++errors;
        }
    }
    std::printf("verification: %s (%d mismatches)\n",
                errors == 0 ? "PASS" : "FAIL", errors);

    // Show one round's traffic for lane 0..3.
    std::printf("\nround 0 receives:\n");
    for (int lane = 0; lane < 4; ++lane) {
        std::printf("  lane %d <- lane %d, regs:", lane,
                    shuffle.transfer(0, lane, 0).srcLane);
        for (int slot = 0; slot < shuffle.vecElems; ++slot) {
            const auto t = shuffle.transfer(0, lane, slot);
            std::printf(" %d->%d", t.srcReg, t.dstReg);
        }
        std::printf("\n");
    }
    return errors == 0 ? 0 : 1;
}
