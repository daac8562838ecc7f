/**
 * @file
 * Table 4: reduction support and shared-memory store counts per layout
 * family.
 *
 * For every family in Figure 3 (plus a custom layout no legacy encoding
 * can express) we run a reduction over the paper's shape set. The
 * linear-layout side is *computed*: the sliced result layout is built,
 * duplicate data is detected through free-variable masks, and only
 * unique elements are stored. The legacy side uses the published support
 * matrix and stores every thread's partials.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "bench_util.h"
#include "engine/shape_transfer.h"
#include "legacy/legacy.h"

namespace {

using namespace ll;
using legacy::LayoutKind;

const std::vector<triton::Shape> kShapes = {
    {128, 16}, {128, 128}, {32, 128}, {32, 32}, {16, 16}};

LinearLayout
blockedVariant(int v, const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    switch (v % 4) {
      case 0:
        enc.sizePerThread = {1, 4};
        enc.threadsPerWarp = {8, 4};
        enc.warpsPerCta = {2, 2};
        enc.order = {1, 0};
        break;
      case 1:
        enc.sizePerThread = {4, 1};
        enc.threadsPerWarp = {4, 8};
        enc.warpsPerCta = {1, 4};
        enc.order = {0, 1};
        break;
      case 2:
        enc.sizePerThread = {2, 2};
        enc.threadsPerWarp = {16, 2};
        enc.warpsPerCta = {4, 1};
        enc.order = {1, 0};
        break;
      default:
        enc.sizePerThread = {1, 1};
        enc.threadsPerWarp = {1, 32};
        enc.warpsPerCta = {2, 2};
        enc.order = {1, 0};
        break;
    }
    return enc.toLinearLayout(shape);
}

LinearLayout
mmaVariant(int v, const triton::Shape &shape)
{
    triton::MmaEncoding enc;
    enc.version = 2;
    enc.warpsPerCta = (v % 2 == 0) ? triton::Shape{2, 2}
                                   : triton::Shape{4, 1};
    return enc.toLinearLayout(shape);
}

LinearLayout
mmaInputVariant(int v, const triton::Shape &shape)
{
    triton::DotOperandEncoding enc;
    enc.parent.version = 2;
    enc.parent.warpsPerCta = {2, 2};
    enc.opIdx = 0;
    enc.bitwidth = (v % 2 == 0) ? 16 : 8;
    return enc.toLinearLayout(shape);
}

/** A distributed layout interleaving dims in a pattern no legacy
 *  encoding expresses. */
LinearLayout
customVariant(int v, const triton::Shape &shape)
{
    // Assign bits round-robin across (dim1, dim0), registers first.
    int b0 = 0, b1 = 0;
    auto nextBasis = [&](int which) {
        std::vector<int32_t> basis = {0, 0};
        if (which == 1 && (int32_t(1) << b1) < shape[1]) {
            basis[0] = int32_t(1) << b1++;
        } else if ((int32_t(1) << b0) < shape[0]) {
            basis[1] = int32_t(1) << b0++;
        } else if ((int32_t(1) << b1) < shape[1]) {
            basis[0] = int32_t(1) << b1++;
        }
        return basis;
    };
    LinearLayout::BasesT bases;
    std::vector<std::vector<int32_t>> regs, lanes, warps;
    regs.push_back(nextBasis(v % 2));
    regs.push_back(nextBasis(1 - v % 2));
    for (int i = 0; i < 5; ++i)
        lanes.push_back(nextBasis((i + v) % 2));
    for (int i = 0; i < 2; ++i)
        warps.push_back(nextBasis(i % 2));
    bases.insert("register", regs);
    bases.insert("lane", lanes);
    bases.insert("warp", warps);
    LinearLayout partial(
        std::move(bases),
        {{"dim1", int32_t(1) << b1}, {"dim0", int32_t(1) << b0}},
        /*requireSurjective=*/false);
    // Cover whatever remains with extra registers.
    LinearLayout full = partial;
    if ((shape[1] >> b1) > 1)
        full = full * LinearLayout::identity1D(shape[1] >> b1,
                                               "register", "dim1");
    if ((shape[0] >> b0) > 1)
        full = full * LinearLayout::identity1D(shape[0] >> b0,
                                               "register", "dim0");
    return full.transposeIns({"register", "lane", "warp"});
}

struct Row
{
    LayoutKind kind;
    const char *key; ///< the family's name in `results`
    int variants;
    bool sliced;
    std::function<LinearLayout(int, const triton::Shape &)> make;
};

/**
 * Print the table and record in `results`, per family, the cases run
 * (total.<family>) and those the linear layout passed
 * (linear_pass.<family>), plus the largest store saving over the
 * legacy-supported families as the table rounds it
 * (max_store_saving_pct).
 */
void
printTable(bench::Results &results)
{
    results.clear();
    double maxSaving = 0.0;
    auto spec = sim::GpuSpec::gh200();
    bench::printHeader(
        "Table 4: reduction support and #shared-memory store "
        "instructions per layout family");
    std::printf("%-20s %9s %9s %14s %14s\n", "Layout", "Triton",
                "T-Linear", "legacy #st", "linear #st");

    const Row rows[] = {
        {LayoutKind::Blocked, "blocked", 4, false, blockedVariant},
        {LayoutKind::Mma, "mma", 4, false, mmaVariant},
        {LayoutKind::MmaInput, "mma_input", 2, false, mmaInputVariant},
        {LayoutKind::SlicedBlocked, "sliced_blocked", 4, true,
         blockedVariant},
        {LayoutKind::SlicedMma, "sliced_mma", 2, true, mmaVariant},
        {LayoutKind::SlicedMmaInput, "sliced_mma_input", 2, true,
         mmaInputVariant},
        {LayoutKind::Custom, "custom", 2, false, customVariant},
    };
    for (const Row &row : rows) {
        int total = 0, linearPass = 0, legacyPass = 0;
        int64_t legacyStores = 0, linearStores = 0;
        bool legacySupported = legacy::legacySupportsReduction(row.kind);
        for (int v = 0; v < row.variants; ++v) {
            for (const auto &shape : kShapes) {
                ++total;
                LinearLayout layout = row.make(v, shape);
                int axis = 1;
                if (row.sliced) {
                    layout = triton::sliceLayout(layout, 1);
                    axis = 0;
                }
                // Triton-Linear: genuinely construct the reduction.
                try {
                    LinearLayout result =
                        engine::reduceTransfer(layout, axis);
                    if (result.isSurjective())
                        ++linearPass;
                    linearStores += legacy::linearReductionSharedStores(
                        layout, axis, spec);
                } catch (const std::exception &) {
                    // construction failure counts as a failed case
                }
                if (legacySupported) {
                    ++legacyPass;
                    legacyStores += legacy::legacyReductionSharedStores(
                        layout, axis, spec);
                }
            }
        }
        char legacyStoreBuf[32];
        if (legacySupported) {
            std::snprintf(legacyStoreBuf, sizeof legacyStoreBuf, "%lld",
                          static_cast<long long>(legacyStores));
        } else {
            std::snprintf(legacyStoreBuf, sizeof legacyStoreBuf, "N/A");
        }
        double cut =
            legacySupported && legacyStores > 0
                ? 100.0 * (legacyStores - linearStores) / legacyStores
                : 0.0;
        std::printf("%-20s %5d/%-3d %5d/%-3d %14s %10lld (%3.0f%%)\n",
                    legacy::toString(row.kind).c_str(), legacyPass,
                    total, linearPass, total, legacyStoreBuf,
                    static_cast<long long>(linearStores),
                    -cut);
        results.emplace_back(std::string("total.") + row.key, total);
        results.emplace_back(std::string("linear_pass.") + row.key,
                             linearPass);
        maxSaving = std::max(maxSaving, cut);
    }
    std::printf("(negative %% = stores saved by duplicate detection)\n");
    results.emplace_back("max_store_saving_pct", std::round(maxSaving));
}

void
BM_ReduceTransfer(benchmark::State &state)
{
    auto layout = blockedVariant(0, {128, 128});
    for (auto _ : state) {
        auto r = ll::engine::reduceTransfer(layout, 1);
        benchmark::DoNotOptimize(r);
    }
}

BENCHMARK(BM_ReduceTransfer);

} // namespace

int
main(int argc, char **argv)
{
    ll::bench::Results results;
    ll::bench::emitBenchJson(
        "tab4_broadcast", [&results] { printTable(results); }, results);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
