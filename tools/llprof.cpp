/**
 * @file
 * llprof — report and regression-gate tooling over the
 * BENCH_<name>.json reports.
 *
 * Report mode:
 *
 *   --bench DIR     summarize the BENCH_*.json reports in DIR:
 *                   wall-time medians, then per planner rung how often
 *                   it was evaluated and accepted, summed over every
 *                   report's plan.rung.<rung>.evaluated and
 *                   plan.kind.<kind> counters. Exits 1 when no report
 *                   carries a plan.rung.* counter: a table over nothing
 *                   checks nothing.
 *
 * Gate mode:
 *
 *   --gate BASELINE CURRENT   diff two bench-JSON directories: for
 *                   every BENCH_*.json in BASELINE, the matching
 *                   CURRENT report's wall_ms.median must stay within
 *                   (1 + --tolerance) * baseline + --slack-ms. A
 *                   missing current report is a regression. Exit 0 when
 *                   everything holds, 1 on any regression — the CI
 *                   perf gate (llprof_gate_smoke).
 *   --tolerance F   relative noise tolerance (default 0.10).
 *   --slack-ms MS   absolute slack added on top (default 0.05), so
 *                   microsecond-scale benches do not flap the gate.
 *
 *   When a baseline report carries the layout-synthesis fields
 *   (synth.fig9.converts_eliminated / synth.fig9.cycles in "metrics",
 *   emitted by fig9_real_kernels under LL_FIG9_SYNTH), the matching
 *   current report must carry them too: eliminated may not decrease at
 *   all (a deterministic model count) and cycles may not grow past the
 *   relative tolerance. fig9_synth_smoke exercises both directions.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "support/json_lite.h"

using namespace ll;

namespace {

struct Options
{
    std::string benchDir;
    bool gate = false;
    std::string gateBaseline;
    std::string gateCurrent;
    double tolerance = 0.10;
    double slackMs = 0.05;
};

void
usage()
{
    std::cerr
        << "usage: llprof --bench DIR\n"
           "       llprof --gate BASELINE CURRENT [--tolerance FRAC]\n"
           "              [--slack-ms MS]\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto needValue = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "llprof: " << name << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            const char *v = needValue("--bench");
            if (!v)
                return false;
            opt.benchDir = v;
        } else if (arg == "--gate") {
            if (i + 2 >= argc) {
                std::cerr << "llprof: --gate needs BASELINE and "
                             "CURRENT directories\n";
                return false;
            }
            opt.gate = true;
            opt.gateBaseline = argv[++i];
            opt.gateCurrent = argv[++i];
        } else if (arg == "--tolerance") {
            const char *v = needValue("--tolerance");
            if (!v)
                return false;
            opt.tolerance = std::atof(v);
            if (opt.tolerance < 0.0) {
                std::cerr << "llprof: --tolerance must be >= 0\n";
                return false;
            }
        } else if (arg == "--slack-ms") {
            const char *v = needValue("--slack-ms");
            if (!v)
                return false;
            opt.slackMs = std::atof(v);
            if (opt.slackMs < 0.0) {
                std::cerr << "llprof: --slack-ms must be >= 0\n";
                return false;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "llprof: unknown option " << arg << "\n";
            usage();
            return false;
        }
    }
    if (!opt.gate && opt.benchDir.empty()) {
        std::cerr << "llprof: nothing to do\n";
        usage();
        return false;
    }
    return true;
}

/// Bench-JSON handling ------------------------------------------------

struct BenchReport
{
    std::string name;
    double medianMs = 0.0;
    double p90Ms = 0.0;
    double reps = 0.0;
    /** Layout-synthesis fields from a fig9 run with LL_FIG9_SYNTH
     *  (metrics object); absent from every other report. The gate
     *  treats them as part of the contract once a baseline carries
     *  them: eliminated must not decrease (it is a deterministic
     *  model count, no tolerance) and cycles must not grow past the
     *  wall-time tolerance. */
    std::optional<double> synthEliminated;
    std::optional<double> synthCycles;
    /** The planner's plan.rung.* and plan.kind.* counters. */
    std::map<std::string, double> planCounters;
};

/** The planner's rungs in ladder order: the span-taxonomy rung name
 *  (plan.rung.<rung>.evaluated) and the kind it ships on acceptance
 *  (plan.kind.<kind>). */
const struct
{
    const char *rung;
    const char *kind;
} kLadder[] = {
    {"noop", "no-op"},
    {"register-permute", "register-permute"},
    {"warp-shuffle", "warp-shuffle"},
    {"shared-memory", "shared-memory"},
    {"shared-padded", "shared-padded"},
    {"shared-scalar", "shared-scalar"},
};

std::optional<BenchReport>
readBenchReport(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream text;
    text << is.rdbuf();
    auto parsed = jsonlite::parse(text.str());
    if (!parsed.has_value() || !parsed->isObject())
        return std::nullopt;
    const auto *name = parsed->find("name");
    const auto *wall = parsed->find("wall_ms");
    if (!name || !name->isString() || !wall || !wall->isObject())
        return std::nullopt;
    const auto *median = wall->find("median");
    const auto *p90 = wall->find("p90");
    if (!median || !median->isNumber())
        return std::nullopt;
    BenchReport r;
    r.name = name->str;
    r.medianMs = median->number;
    r.p90Ms = p90 && p90->isNumber() ? p90->number : 0.0;
    const auto *reps = parsed->find("reps");
    r.reps = reps && reps->isNumber() ? reps->number : 0.0;
    if (const auto *metrics = parsed->find("metrics");
        metrics && metrics->isObject()) {
        const auto *elim =
            metrics->find("synth.fig9.converts_eliminated");
        if (elim && elim->isNumber())
            r.synthEliminated = elim->number;
        const auto *cycles = metrics->find("synth.fig9.cycles");
        if (cycles && cycles->isNumber())
            r.synthCycles = cycles->number;
        for (const auto &[key, value] : metrics->members) {
            if (value.isNumber() && (key.rfind("plan.rung.", 0) == 0 ||
                                     key.rfind("plan.kind.", 0) == 0))
                r.planCounters[key] = value.number;
        }
    }
    return r;
}

/** name -> report for every BENCH_*.json in dir; nullopt on IO error. */
std::optional<std::map<std::string, BenchReport>>
readBenchDir(const std::string &dir)
{
    std::map<std::string, BenchReport> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string base = entry.path().filename().string();
        if (base.rfind("BENCH_", 0) != 0 ||
            entry.path().extension() != ".json")
            continue;
        auto report = readBenchReport(entry.path().string());
        if (!report.has_value()) {
            std::cerr << "llprof: " << entry.path().string()
                      << ": malformed bench report\n";
            return std::nullopt;
        }
        out[report->name] = *report;
    }
    if (ec) {
        std::cerr << "llprof: cannot read " << dir << ": "
                  << ec.message() << "\n";
        return std::nullopt;
    }
    return out;
}

int
reportBench(const std::string &dir)
{
    auto reports = readBenchDir(dir);
    if (!reports.has_value())
        return 1;
    if (reports->empty()) {
        std::cerr << "llprof: no BENCH_*.json found in " << dir << "\n";
        return 1;
    }
    std::printf("\nbench suite (%s):\n", dir.c_str());
    std::printf("  %-28s %12s %12s %6s\n", "name", "median-ms",
                "p90-ms", "reps");
    double total = 0.0;
    for (const auto &[name, r] : *reports) {
        std::printf("  %-28s %12.3f %12.3f %6.0f\n", name.c_str(),
                    r.medianMs, r.p90Ms, r.reps);
        total += r.medianMs;
    }
    std::printf("  %-28s %12.3f\n", "total", total);

    // Each counter summed over every report that carries it.
    std::map<std::string, double> sums;
    size_t counters = 0;
    bool anyRung = false;
    for (const auto &[name, r] : *reports) {
        counters += r.planCounters.size();
        for (const auto &[key, value] : r.planCounters) {
            sums[key] += value;
            anyRung = anyRung || key.rfind("plan.rung.", 0) == 0;
        }
    }
    if (!anyRung) {
        std::cerr << "llprof: no report in " << dir
                  << " carries a plan.rung.* counter\n";
        return 1;
    }
    std::printf("\nper-rung evaluations (%zu plan counter(s) from %zu "
                "report(s)):\n",
                counters, reports->size());
    std::printf("  %-18s %9s %9s\n", "rung", "evals", "accepts");
    for (const auto &step : kLadder) {
        std::printf(
            "  %-18s %9.0f %9.0f\n", step.rung,
            sums[std::string("plan.rung.") + step.rung + ".evaluated"],
            sums[std::string("plan.kind.") + step.kind]);
    }
    return 0;
}

int
runGate(const Options &opt)
{
    auto baseline = readBenchDir(opt.gateBaseline);
    auto current = readBenchDir(opt.gateCurrent);
    if (!baseline.has_value() || !current.has_value())
        return 2;
    if (baseline->empty()) {
        std::cerr << "llprof: no BENCH_*.json found in "
                  << opt.gateBaseline << "\n";
        return 2;
    }
    int regressions = 0;
    std::printf("llprof gate: tolerance %.0f%% + %.3g ms slack\n",
                100.0 * opt.tolerance, opt.slackMs);
    std::printf("  %-28s %12s %12s %8s  %s\n", "name", "baseline-ms",
                "current-ms", "delta%", "verdict");
    for (const auto &[name, base] : *baseline) {
        auto it = current->find(name);
        if (it == current->end()) {
            ++regressions;
            std::printf("  %-28s %12.3f %12s %8s  MISSING\n",
                        name.c_str(), base.medianMs, "-", "-");
            continue;
        }
        const double cur = it->second.medianMs;
        const double limit =
            base.medianMs * (1.0 + opt.tolerance) + opt.slackMs;
        const double deltaPct =
            base.medianMs > 0.0
                ? 100.0 * (cur - base.medianMs) / base.medianMs
                : 0.0;
        const bool regressed = cur > limit;
        regressions += regressed;
        std::printf("  %-28s %12.3f %12.3f %+8.1f  %s\n", name.c_str(),
                    base.medianMs, cur, deltaPct,
                    regressed ? "REGRESSED" : "ok");
        // Synth fields: present in the baseline -> part of the
        // contract for the current report too.
        if (base.synthEliminated.has_value()) {
            const auto &curR = it->second;
            bool bad;
            if (!curR.synthEliminated.has_value()) {
                bad = true;
                std::printf("  %-28s %12.0f %12s %8s  MISSING\n",
                            (name + ".synth_eliminated").c_str(),
                            *base.synthEliminated, "-", "-");
            } else {
                bad = *curR.synthEliminated < *base.synthEliminated;
                std::printf("  %-28s %12.0f %12.0f %8s  %s\n",
                            (name + ".synth_eliminated").c_str(),
                            *base.synthEliminated,
                            *curR.synthEliminated, "-",
                            bad ? "REGRESSED" : "ok");
            }
            regressions += bad;
        }
        if (base.synthCycles.has_value()) {
            const auto &curR = it->second;
            bool bad;
            if (!curR.synthCycles.has_value()) {
                bad = true;
                std::printf("  %-28s %12.0f %12s %8s  MISSING\n",
                            (name + ".synth_cycles").c_str(),
                            *base.synthCycles, "-", "-");
            } else {
                const double cycleLimit =
                    *base.synthCycles * (1.0 + opt.tolerance);
                bad = *curR.synthCycles > cycleLimit;
                std::printf("  %-28s %12.0f %12.0f %8s  %s\n",
                            (name + ".synth_cycles").c_str(),
                            *base.synthCycles, *curR.synthCycles, "-",
                            bad ? "REGRESSED" : "ok");
            }
            regressions += bad;
        }
    }
    std::printf("llprof gate: %d regression(s) across %zu bench(es)\n",
                regressions, baseline->size());
    return regressions ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    if (opt.gate)
        return runGate(opt);

    return reportBench(opt.benchDir);
}
