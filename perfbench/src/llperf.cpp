/**
 * @file
 * llperf: the repository benchmark.
 *
 *   llperf --workload <suite_cold|serve_mixed> --seed <n>
 *          --seconds <s> --trace <0|1>
 *
 * Sets up the workload's inputs several times (setup_s is the median),
 * then, in a forked child, runs its timed loop (peak_rss_mb is the
 * child's peak when it ends), checks its outputs, and prints:
 *   - one "report" JSON line: host fingerprint, seed, operation and audit
 *     counts, failed_share, the first failures, and every metric;
 *   - with --trace 1, the per-layer span table;
 *   - last, the result line {"correct", "attempted", "failed",
 *     "metrics"} holding the end-to-end metrics (--trace 0) or the
 *     per-layer metrics (--trace 1), each with its unit.
 * Exits 2 on bad arguments and 1, without a result line, when the run
 * compared nothing (no operation completed or no conversion audited).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "support/trace.h"
#include "workloads.h"

namespace {

using namespace llperf;

/** Set-up repetitions, each pinned to the next core: about 40 ms in all
 *  for suite_cold (IR only); serve_mixed's set-up serves a cold batch of
 *  about 1 s. */
int
setupRepeats(Workload workload)
{
    return workload == Workload::ServeMixed ? 8 : 101;
}

struct Args
{
    std::string workloadName;
    Workload workload = Workload::SuiteCold;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            auto w = parseWorkload(value);
            if (!w)
                return false;
            args.workloadName = value;
            args.workload = *w;
            haveWorkload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = end != value.c_str() && *end == '\0' &&
                          args.seconds > 0.0 && args.seconds <= 120.0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void
printTable(const SpanTable &table)
{
    std::printf("%-16s %-6s %10s %14s %14s\n", "span", "source", "count",
                "incl_ms/pass", "self_ms/pass");
    for (const auto &[name, row] : table)
        std::printf("%-16s %-6s %10lld %14.3f %14.3f\n", name.c_str(),
                    row.source.c_str(), static_cast<long long>(row.count),
                    row.inclMs, row.selfMs);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: llperf --workload "
                     "<suite_cold|serve_mixed> --seed <n> "
                     "--seconds <0..120> --trace <0|1>\n");
        return 2;
    }

    // Keep each workload's thread count what it states: no planner
    // candidate pool (its workers would share the cores with the
    // service's and add scheduling noise to every timing). This also
    // leaves no thread alive at the fork below.
    setenv("LL_PARALLEL", "0", 1);
    // Spans are recorded only in the traced part of a --trace 1 run, even
    // when LL_TRACE is set.
    ll::trace::setEnabled(false);

    std::vector<double> setupS;
    Inputs inputs;
    for (int i = 0; i < setupRepeats(args.workload); ++i) {
        pinForPass(i, 1);
        inputs = Inputs{};
        const auto t0 = std::chrono::steady_clock::now();
        inputs = buildInputs(args.workload, args.seed);
        setupS.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }

    // The timed loop and the check run in a forked child, so that
    // peak_rss_mb is the loop's peak over what set-up left live, not a
    // transient of set-up (serve_mixed's cold batch can briefly take tens
    // of MB for one seed's draws and nothing for another's). The heap is
    // trimmed first so the freed transient does not stay resident. No
    // thread is alive here: the service joins its workers.
    pinForPass(0, 0);
    rusage setupUsage{};
    getrusage(RUSAGE_SELF, &setupUsage);
    malloc_trim(0);
    std::fflush(stdout);
    const pid_t child = fork();
    if (child < 0) {
        std::perror("llperf: fork");
        return 1;
    }
    if (child > 0) {
        int status = 0;
        if (waitpid(child, &status, 0) != child)
            return 1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    }

    RunResult r =
        runWorkload(args.workload, inputs, args.seconds, args.trace);
    r.metrics["setup_s"] = median(setupS);

    const int64_t attempted = r.ops + r.audited;
    std::string report = "{\"report\": {\"workload\": " +
                         jsonString(args.workloadName) +
                         ", \"seed\": " + std::to_string(args.seed) +
                         ", \"seconds\": " + jsonNumber(args.seconds) +
                         ", \"trace\": " + (args.trace ? "1" : "0");
    report += ", \"host\": {\"nproc\": " +
              std::to_string(std::thread::hardware_concurrency()) +
              ", \"compiler\": " + jsonString(LLPERF_COMPILER) +
              ", \"build_type\": " + jsonString(LLPERF_BUILD_TYPE) + "}";
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.drawDigest));
    report += ", \"ops\": " + std::to_string(r.ops) +
              ", \"audited\": " + std::to_string(r.audited) +
              ", \"failed\": " + std::to_string(r.failed) +
              ", \"setup_peak_rss_mb\": " +
              jsonNumber(static_cast<double>(setupUsage.ru_maxrss) / 1024.0) +
              ", \"failed_share\": " +
              jsonNumber(attempted > 0 ? static_cast<double>(r.failed) /
                                             static_cast<double>(attempted)
                                       : 1.0) +
              ", \"draw_digest\": \"" + digest + "\", \"problems\": [";
    for (size_t i = 0; i < r.problems.size(); ++i)
        report += (i ? ", " : "") + jsonString(r.problems[i]);
    report += "], \"metrics\": {";
    bool firstMetric = true;
    for (const auto &[name, value] : r.metrics) {
        report += (firstMetric ? "" : ", ") + jsonString(name) + ": " +
                  jsonNumber(value);
        firstMetric = false;
    }
    std::printf("%s}}}\n", report.c_str());
    if (args.trace)
        printTable(r.table);

    if (r.ops == 0 || r.audited == 0) {
        std::fprintf(stderr,
                     "llperf: the run compared nothing (%lld operations, "
                     "%lld conversions audited)\n",
                     static_cast<long long>(r.ops),
                     static_cast<long long>(r.audited));
        return 1;
    }

    std::vector<MetricSpec> listed = perLayerMetrics();
    if (!args.trace) {
        listed = {{"setup_s", "s"}};
        for (const MetricSpec &s : endToEndMetrics())
            listed.push_back(s);
    }
    std::string result = std::string("{\"correct\": ") +
                         (r.failed == 0 ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(attempted) +
                         ", \"failed\": " + std::to_string(r.failed) +
                         ", \"metrics\": {";
    for (size_t i = 0; i < listed.size(); ++i) {
        auto it = r.metrics.find(listed[i].name);
        if (it == r.metrics.end()) {
            std::fprintf(stderr, "llperf: metric %s was not measured\n",
                         listed[i].name.c_str());
            return 1;
        }
        result += (i ? ", " : "") + jsonString(listed[i].name) +
                  ": {\"value\": " + jsonNumber(it->second) +
                  ", \"unit\": " + jsonString(listed[i].unit) + "}";
    }
    std::printf("%s}}\n", result.c_str());
    return 0;
}
