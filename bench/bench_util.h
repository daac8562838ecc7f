/**
 * @file
 * Shared helpers for the experiment benchmarks: table printing, blocked
 * layout shorthand, and the shared-conversion cost composition used by
 * several figures.
 */

#ifndef LL_BENCH_BENCH_UTIL_H
#define LL_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "codegen/swizzle.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"
#include "support/host.h"
#include "support/metrics.h"
#include "triton/encodings.h"

namespace ll {
namespace bench {

inline LinearLayout
makeBlocked(const triton::Shape &spt, const triton::Shape &tpw,
            const triton::Shape &wpc, const std::vector<int32_t> &order,
            const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

/** Modeled cycles of a conversion through an optimally swizzled shared
 *  layout (store + load + round trip), per warp. */
inline double
swizzledConversionCycles(const codegen::SwizzledShared &swz,
                         const LinearLayout &src, const LinearLayout &dst,
                         int elemBytes, const sim::GpuSpec &spec)
{
    auto regsOf = [](const LinearLayout &l) {
        return l.hasInDim("register") ? l.getInDimSize("register") : 1;
    };
    int vec = swz.vecElems();
    double storeInsts = std::max(1, regsOf(src) / vec);
    double loadInsts = std::max(1, regsOf(dst) / vec);
    double storeWf = static_cast<double>(
        codegen::analyticWavefronts(swz, src, elemBytes, spec));
    double loadWf = static_cast<double>(codegen::analyticWavefronts(
        swz, dst.transposeOuts(src.getOutDimNames()), elemBytes, spec));
    return storeInsts * storeWf * spec.sharedWavefrontCycles +
           loadInsts * loadWf * spec.sharedWavefrontCycles +
           spec.sharedRoundTripCycles;
}

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

inline void
printHeader(const std::string &title)
{
    printRule();
    std::printf("%s\n", title.c_str());
    printRule();
}

/** Nearest-rank percentile of an unsorted sample (p in [0, 100]). */
inline double
percentileMs(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

/** A bench's headline table values, flat key -> number, in order. */
using Results = std::vector<std::pair<std::string, double>>;

/**
 * Run a figure's experiment `fn` LL_BENCH_REPS times (default 5) and
 * write a machine-readable BENCH_<name>.json report next to the
 * process (or into $LL_BENCH_JSON_DIR): name, rep count, the host
 * fingerprint (host::fingerprintJson), wall-time median / p90 / min /
 * mean in milliseconds, the delta of every
 * metrics-registry counter the reps moved and, when `results` is not
 * empty after the last rep, a "results" object of its values (fn
 * fills it; the repro_claims_smoke ctest checks the paper's claims on
 * it). The first rep prints normally — it is the human-facing table —
 * and the remaining reps run with stdout parked on /dev/null so timing
 * reps do not repeat it.
 *
 * The schema here is a contract: llstat --validate-bench-json (and the
 * bench_json_smoke ctest entry) reject reports that drift from it.
 * Its plan.rung.<rung>.evaluated and plan.kind.<kind> counters are the
 * per-rung evals/accepts table that llprof --bench prints.
 */
inline void
emitBenchJson(const std::string &name, const std::function<void()> &fn,
              const Results &results = {})
{
    int reps = 5;
    if (const char *env = std::getenv("LL_BENCH_REPS"))
        reps = std::max(1, std::atoi(env));

    auto before = metrics::Registry::instance().counterSnapshot();
    std::vector<double> wallMs;
    wallMs.reserve(static_cast<size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
        int savedStdout = -1;
        if (rep > 0) {
            std::fflush(stdout);
            savedStdout = ::dup(1);
            int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) {
                ::dup2(devnull, 1);
                ::close(devnull);
            }
        }
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        if (savedStdout >= 0) {
            std::fflush(stdout);
            ::dup2(savedStdout, 1);
            ::close(savedStdout);
        }
        wallMs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    auto after = metrics::Registry::instance().counterSnapshot();

    std::string dir = ".";
    if (const char *env = std::getenv("LL_BENCH_JSON_DIR"))
        dir = env;

    double mean = 0.0;
    for (double w : wallMs)
        mean += w;
    mean /= static_cast<double>(wallMs.size());

    const std::string path = dir + "/BENCH_" + name + ".json";
    std::ofstream os(path);
    if (!os.good()) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\n"
       << "  \"name\": \"" << name << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"host\": " << host::fingerprintJson() << ",\n"
       << "  \"wall_ms\": {";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"median\": %.6g, \"p90\": %.6g, \"min\": %.6g, "
                  "\"mean\": %.6g",
                  percentileMs(wallMs, 50.0), percentileMs(wallMs, 90.0),
                  *std::min_element(wallMs.begin(), wallMs.end()), mean);
    os << buf << "},\n"
       << "  \"metrics\": {";
    bool first = true;
    for (const auto &[key, value] : after) {
        auto it = before.find(key);
        long long delta =
            value - (it == before.end() ? 0 : it->second);
        if (delta == 0)
            continue;
        os << (first ? "" : ", ") << "\"" << key << "\": " << delta;
        first = false;
    }
    os << "}";
    if (!results.empty()) {
        os << ",\n  \"results\": {";
        first = true;
        for (const auto &[key, value] : results) {
            std::snprintf(buf, sizeof(buf), "%.6g", value);
            os << (first ? "" : ", ") << "\"" << key << "\": " << buf;
            first = false;
        }
        os << "}";
    }
    os << "\n}\n";
    std::printf("bench: wrote %s (%d reps)\n", path.c_str(), reps);
}

} // namespace bench
} // namespace ll

#endif // LL_BENCH_BENCH_UTIL_H
