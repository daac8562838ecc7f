/**
 * @file
 * llstat — observability driver: replay work through the instrumented
 * pipeline and report the trace + metrics it produced.
 *
 * Three workloads, combinable in one invocation:
 *
 *   --corpus DIR   replay every corpus case file in DIR (the fuzzer's
 *                  text format): plan each under its failpoints with
 *                  codegen::tryPlanConversion and smoke-execute the
 *                  plan with codegen::smokeExecutePlan;
 *   --case FILE    replay one corpus case file;
 *   --kernels      run the Figure 9 kernel suite through LayoutEngine
 *                  (first size knob of each kernel), the full
 *                  assign/cleanup/plan pipeline.
 *
 * A replayed case that fails to plan or fails its smoke run, and a
 * kernel conversion the engine leaves unplanned, fail the run (exit 1).
 *
 * Reporting:
 *
 *   --trace PATH        write the Chrome trace-event JSON to PATH
 *                       (tracing is force-enabled; open the file in
 *                       Perfetto / chrome://tracing);
 *   --trace-reset       after reporting, flush the process-global
 *                       trace buffer (to --trace PATH when given) and
 *                       clear it; the dropped-event count resets with
 *                       it, so a long-lived process can carve its
 *                       timeline into bounded segments;
 *   --metrics text|json metrics exposition format on stdout (default
 *                       text, Prometheus-style; "none" to suppress);
 *   --profile [TRACE]   after the workloads, print count, inclusive and
 *                       self time per span name (trace::aggregateSpans,
 *                       spans nested per thread), largest self time
 *                       first; given a saved LL_TRACE / --trace file,
 *                       print that file's table instead and run no
 *                       workload;
 *   --check-spans       fail (exit 1) unless every planned conversion
 *                       produced a "plan.conversion" span carrying the
 *                       selected rung and modeled cycles, and — with
 *                       --kernels — every live ConvertLayout op in
 *                       every kernel has a matching "convert.op" span.
 *
 * Validation:
 *
 *   --validate-bench-json DIR  check every BENCH_*.json in DIR against
 *                              the benchmark report schema (name, reps,
 *                              wall_ms.median/p90, metrics object, and
 *                              an optional results object of finite
 *                              numbers whose geomean.<platform> pairs
 *                              with cases.<platform>); fails if DIR
 *                              holds none.
 *
 * The --check-spans contract is what the llstat_corpus_spans ctest
 * entry enforces: the span taxonomy documented in DESIGN.md is load
 * bearing, not decorative.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "codegen/conversion.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "support/failpoint.h"
#include "support/json_lite.h"
#include "support/metrics.h"
#include "support/trace.h"

using namespace ll;

namespace {

struct Options
{
    std::string corpusDir;
    std::string caseFile;
    bool kernels = false;
    std::string tracePath;
    bool traceReset = false;
    std::string metricsFormat = "text";
    bool checkSpans = false;
    bool profile = false;
    std::string profileTrace;
    std::string validateBenchDir;
};

void
usage()
{
    std::cerr
        << "usage: llstat [--corpus DIR] [--case FILE] [--kernels]\n"
           "              [--trace PATH] [--trace-reset]\n"
           "              [--metrics text|json|none] [--profile [TRACE]]\n"
           "              [--check-spans] [--validate-bench-json DIR]\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto needValue = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "llstat: " << name << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--corpus") {
            const char *v = needValue("--corpus");
            if (!v)
                return false;
            opt.corpusDir = v;
        } else if (arg == "--case") {
            const char *v = needValue("--case");
            if (!v)
                return false;
            opt.caseFile = v;
        } else if (arg == "--kernels") {
            opt.kernels = true;
        } else if (arg == "--trace") {
            const char *v = needValue("--trace");
            if (!v)
                return false;
            opt.tracePath = v;
        } else if (arg == "--metrics") {
            const char *v = needValue("--metrics");
            if (!v)
                return false;
            opt.metricsFormat = v;
            if (opt.metricsFormat != "text" &&
                opt.metricsFormat != "json" &&
                opt.metricsFormat != "none") {
                std::cerr << "llstat: --metrics wants text, json or "
                             "none\n";
                return false;
            }
        } else if (arg == "--trace-reset") {
            opt.traceReset = true;
        } else if (arg == "--check-spans") {
            opt.checkSpans = true;
        } else if (arg == "--profile") {
            opt.profile = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                opt.profileTrace = argv[++i];
        } else if (arg == "--validate-bench-json") {
            const char *v = needValue("--validate-bench-json");
            if (!v)
                return false;
            opt.validateBenchDir = v;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "llstat: unknown option " << arg << "\n";
            usage();
            return false;
        }
    }
    const bool workloads =
        !opt.corpusDir.empty() || !opt.caseFile.empty() || opt.kernels;
    if (!opt.profileTrace.empty() && workloads) {
        std::cerr << "llstat: --profile " << opt.profileTrace
                  << " reads a saved trace and runs no workload\n";
        return false;
    }
    if (!workloads && opt.validateBenchDir.empty() &&
        opt.profileTrace.empty()) {
        std::cerr << "llstat: nothing to do\n";
        usage();
        return false;
    }
    return true;
}

/** One span's args, looked up by key; nullptr when absent. */
const std::string *
spanArg(const trace::Event &e, const char *key)
{
    for (const auto &a : e.args) {
        if (std::strcmp(a.key, key) == 0)
            return &a.value;
    }
    return nullptr;
}

struct ReplayTally
{
    int cases = 0;
    int planned = 0;
    int planFailed = 0;
    int execFailed = 0;
    int spanViolations = 0;
};

/**
 * Replay one conversion case: plan it under the case's failpoints and
 * smoke-execute the plan; a planning or smoke failure is tallied and
 * fails the run. With span checking on, the window of trace events
 * this case appended must contain a "plan.conversion" span whose args
 * carry the selected rung ("kind") and the modeled cost ("cycles").
 */
void
replayCase(const check::ConversionCase &c, const std::string &label,
           bool checkSpans, ReplayTally &tally)
{
    ++tally.cases;
    const size_t before = trace::eventCount();
    failpoint::ScopedSet guard(c.failpoints);
    const auto spec = c.spec();
    auto plan = codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
    if (!plan.ok()) {
        ++tally.planFailed;
        std::cerr << "llstat: planning failed on " << label << ": "
                  << plan.diag().toString() << "\n";
    } else if (auto fail = codegen::smokeExecutePlan(*plan, c.src, c.dst,
                                                     c.elemBytes, spec)) {
        ++tally.execFailed;
        std::cerr << "llstat: smoke execution failed on " << label
                  << ": " << fail->toString() << "\n";
    } else {
        ++tally.planned;
    }

    if (!checkSpans)
        return;
    bool found = false;
    auto events = trace::snapshotEvents();
    for (size_t i = before; i < events.size(); ++i) {
        const auto &e = events[i];
        if (e.name != "plan.conversion")
            continue;
        const std::string *kind = spanArg(e, "kind");
        if (!kind)
            continue;
        if (plan.ok()) {
            if (*kind == codegen::toString(plan->kind) &&
                spanArg(e, "cycles")) {
                found = true;
                break;
            }
        } else if (*kind == "unplanned") {
            found = true;
            break;
        }
    }
    if (!found) {
        ++tally.spanViolations;
        std::cerr << "llstat: no plan.conversion span with rung + cost "
                     "args for "
                  << label << "\n";
    }
}

int
runCorpus(const Options &opt, ReplayTally &tally)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(opt.corpusDir, ec)) {
        // Only .txt files hold linear conversion cases; the corpus
        // dir also carries .cute seeds in the cute layout format.
        if (entry.is_regular_file() &&
            entry.path().extension() == ".txt")
            files.push_back(entry.path().string());
    }
    if (ec) {
        std::cerr << "llstat: cannot read corpus dir " << opt.corpusDir
                  << ": " << ec.message() << "\n";
        return 1;
    }
    if (files.empty()) {
        std::cerr << "llstat: corpus dir " << opt.corpusDir
                  << " holds no case files\n";
        return 1;
    }
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        check::ConversionCase c;
        try {
            c = check::readCaseFile(path);
        } catch (const std::exception &e) {
            std::cerr << "llstat: " << path << ": " << e.what() << "\n";
            return 1;
        }
        replayCase(c, c.summary.empty() ? path : c.summary,
                   opt.checkSpans, tally);
    }
    return 0;
}

/**
 * Run the kernel suite through the engine. With span checking on, every
 * live ConvertLayout op (tagged "convert:<kind>" or
 * "convert:unplanned" by planConversions) must have a "convert.op"
 * span whose "op" arg names its op index.
 */
int
runKernels(const Options &opt, ReplayTally &tally)
{
    int violations = 0;
    for (const auto &spec : kernels::allKernels()) {
        auto f = spec.build(spec.sizes.front());
        const size_t before = trace::eventCount();
        engine::LayoutEngine eng{engine::EngineOptions{}};
        auto stats = eng.run(f);
        tally.planned += stats.convertsPlanned;
        tally.planFailed += stats.planFailures;

        if (!opt.checkSpans)
            continue;
        auto events = trace::snapshotEvents();
        for (int i = 0; i < f.numOps(); ++i) {
            const auto &op = f.op(i);
            if (op.erased || op.kind != ir::OpKind::ConvertLayout)
                continue;
            const std::string want = std::to_string(i);
            bool found = false;
            for (size_t e = before; e < events.size(); ++e) {
                if (events[e].name != "convert.op")
                    continue;
                const std::string *idx = spanArg(events[e], "op");
                if (idx && *idx == want) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                ++violations;
                std::cerr << "llstat: kernel " << spec.name << " op "
                          << i << " (" << op.tag
                          << ") has no convert.op span\n";
            }
        }
    }
    tally.spanViolations += violations;
    return 0;
}

/** The per-span-name table of `events`. */
void
printProfile(const std::vector<trace::Event> &events)
{
    const auto rows = trace::aggregateSpans(events);
    std::cout << "llstat: profile of " << rows.size() << " span name(s)\n";
    char line[160];
    std::snprintf(line, sizeof line, "%-32s %10s %12s %12s\n", "span",
                  "count", "incl_ms", "self_ms");
    std::cout << line;
    for (const auto &r : rows) {
        std::snprintf(line, sizeof line, "%-32s %10lld %12.3f %12.3f\n",
                      r.name.c_str(), static_cast<long long>(r.count),
                      r.inclUs / 1e3, r.selfUs / 1e3);
        std::cout << line;
    }
}

/** The BENCH_<name>.json schema emitted by bench::emitBenchJson. */
bool
validateBenchReport(const std::string &path, const jsonlite::Value &v,
                    std::string &why)
{
    (void)path;
    if (!v.isObject()) {
        why = "root is not an object";
        return false;
    }
    const auto *name = v.find("name");
    if (!name || !name->isString() || name->str.empty()) {
        why = "\"name\" missing or not a non-empty string";
        return false;
    }
    const auto *reps = v.find("reps");
    if (!reps || !reps->isNumber() || reps->number < 1.0 ||
        reps->number != static_cast<double>(
                            static_cast<long long>(reps->number))) {
        why = "\"reps\" missing or not an integer >= 1";
        return false;
    }
    const auto *wall = v.find("wall_ms");
    if (!wall || !wall->isObject()) {
        why = "\"wall_ms\" missing or not an object";
        return false;
    }
    for (const char *field : {"median", "p90"}) {
        const auto *x = wall->find(field);
        if (!x || !x->isNumber() || x->number < 0.0) {
            why = std::string("\"wall_ms.") + field +
                  "\" missing or not a number >= 0";
            return false;
        }
    }
    const auto *metrics = v.find("metrics");
    if (!metrics || !metrics->isObject()) {
        why = "\"metrics\" missing or not an object";
        return false;
    }
    for (const auto &[key, val] : metrics->members) {
        if (!val.isNumber()) {
            why = "metric \"" + key + "\" is not a number";
            return false;
        }
    }
    // "results" (optional) carries a bench's headline table values:
    // finite numbers, where every geomean.<platform> pairs with an
    // integral cases.<platform> >= 1 and is > 0.
    if (const auto *results = v.find("results")) {
        if (!results->isObject() || results->members.empty()) {
            why = "\"results\" is not a non-empty object";
            return false;
        }
        for (const auto &[key, val] : results->members) {
            if (!val.isNumber() || !std::isfinite(val.number)) {
                why = "result \"" + key + "\" is not a finite number";
                return false;
            }
            std::string platform;
            if (key.rfind("geomean.", 0) == 0)
                platform = key.substr(8);
            else if (key.rfind("cases.", 0) == 0)
                platform = key.substr(6);
            else
                continue;
            const auto *geo = results->find("geomean." + platform);
            const auto *cases = results->find("cases." + platform);
            if (!geo || !cases || !geo->isNumber() ||
                !cases->isNumber() || geo->number <= 0.0 ||
                cases->number < 1.0 ||
                cases->number != std::floor(cases->number)) {
                why = "result \"" + key + "\" lacks a geomean > 0 paired "
                      "with an integral case count >= 1";
                return false;
            }
        }
    }
    if (name->str == "service") {
        // A service report must carry the terminal-outcome split —
        // a folded failure count hides sheds and deadline misses.
        double split[4] = {0, 0, 0, 0};
        const char *fields[4] = {
            "service.stream.planned", "service.stream.shed",
            "service.stream.deadline_exceeded",
            "service.stream.failed"};
        for (int i = 0; i < 4; ++i) {
            const auto *x = metrics->find(fields[i]);
            if (!x || !x->isNumber() || x->number < 0.0) {
                why = std::string("service report lacks \"") +
                      fields[i] + "\" (terminal-outcome split)";
                return false;
            }
            split[i] = x->number;
        }
        const auto *requests = metrics->find("service.stream.requests");
        if (!requests || !requests->isNumber()) {
            why = "service report lacks \"service.stream.requests\"";
            return false;
        }
        const double sum =
            split[0] + split[1] + split[2] + split[3];
        if (sum != requests->number) {
            why = "service outcome split does not sum to requests (" +
                  std::to_string(sum) + " vs " +
                  std::to_string(requests->number) + ")";
            return false;
        }
        std::cout << "llstat: service outcomes: planned " << split[0]
                  << ", shed " << split[1] << ", deadline-exceeded "
                  << split[2] << ", failed " << split[3] << "\n";
    }
    // A fig9 synth run must partition its eliminated-conversion count:
    // propagation-eliminated + synthesis-eliminated = eliminated. A
    // report that only carries the headline number hides whether the
    // search did anything. Counters are emitted as deltas with zeros
    // omitted, so an absent partition member reads as an exact 0 (a
    // run where synthesis eliminated nothing extra is still valid —
    // it just must sum).
    if (const auto *elim =
            metrics->find("synth.fig9.converts_eliminated")) {
        const auto *prop =
            metrics->find("synth.fig9.propagation_eliminated");
        const auto *syn = metrics->find("synth.fig9.synth_eliminated");
        if ((prop && !prop->isNumber()) || (syn && !syn->isNumber())) {
            why = "synth report carries a non-numeric member of the "
                  "propagation/synthesis partition";
            return false;
        }
        if (!prop && !syn) {
            why = "synth report lacks the propagation/synthesis "
                  "partition of synth.fig9.converts_eliminated";
            return false;
        }
        double propN = prop ? prop->number : 0;
        double synN = syn ? syn->number : 0;
        if (propN + synN != elim->number) {
            why = "synth eliminated partition does not sum (" +
                  std::to_string(propN) + " + " + std::to_string(synN) +
                  " vs " + std::to_string(elim->number) + ")";
            return false;
        }
        std::cout << "llstat: fig9 synth: eliminated " << elim->number
                  << " (propagation " << propN << " + synthesis " << synN
                  << ")\n";
    }
    return true;
}

int
runValidateBenchJson(const Options &opt)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(opt.validateBenchDir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string base = entry.path().filename().string();
        if (base.rfind("BENCH_", 0) == 0 &&
            base.size() > 11 &&
            base.compare(base.size() - 5, 5, ".json") == 0)
            files.push_back(entry.path().string());
    }
    if (ec) {
        std::cerr << "llstat: cannot read " << opt.validateBenchDir
                  << ": " << ec.message() << "\n";
        return 1;
    }
    if (files.empty()) {
        std::cerr << "llstat: no BENCH_*.json found in "
                  << opt.validateBenchDir << "\n";
        return 1;
    }
    std::sort(files.begin(), files.end());
    int bad = 0;
    for (const auto &path : files) {
        std::ifstream is(path);
        std::ostringstream text;
        text << is.rdbuf();
        auto parsed = jsonlite::parse(text.str());
        if (!parsed.has_value()) {
            std::cerr << "llstat: " << path << ": malformed JSON\n";
            ++bad;
            continue;
        }
        std::string why;
        if (!validateBenchReport(path, *parsed, why)) {
            std::cerr << "llstat: " << path << ": " << why << "\n";
            ++bad;
            continue;
        }
        std::cout << "llstat: " << path << " ok\n";
    }
    std::cout << "llstat: validated " << files.size()
              << " bench report(s), " << bad << " invalid\n";
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    if (!opt.validateBenchDir.empty()) {
        int rc = runValidateBenchJson(opt);
        if (rc != 0)
            return rc;
        if (opt.corpusDir.empty() && opt.caseFile.empty() &&
            !opt.kernels && opt.profileTrace.empty())
            return 0;
    }

    if (!opt.profileTrace.empty()) {
        std::ifstream in(opt.profileTrace);
        std::vector<trace::Event> events;
        if (!in || !trace::readChromeTrace(in, events)) {
            std::cerr << "llstat: cannot read a Chrome trace from "
                      << opt.profileTrace << "\n";
            return 2;
        }
        std::cout << "llstat: " << events.size() << " span(s) read from "
                  << opt.profileTrace << "\n";
        printProfile(events);
        return 0;
    }

    // Span checking and explicit trace output both need the tracer on,
    // LL_TRACE or not.
    if (opt.checkSpans || opt.profile || !opt.tracePath.empty() ||
        opt.traceReset)
        trace::setEnabled(true);
    if (!opt.tracePath.empty())
        trace::setOutputPath(opt.tracePath);

    ReplayTally tally;
    if (!opt.caseFile.empty()) {
        check::ConversionCase c;
        try {
            c = check::readCaseFile(opt.caseFile);
        } catch (const std::exception &e) {
            std::cerr << "llstat: " << e.what() << "\n";
            return 2;
        }
        replayCase(c, c.summary.empty() ? opt.caseFile : c.summary,
                   opt.checkSpans, tally);
    }
    if (!opt.corpusDir.empty()) {
        if (int rc = runCorpus(opt, tally))
            return rc;
    }
    if (opt.kernels) {
        if (int rc = runKernels(opt, tally))
            return rc;
    }

    std::cout << "llstat: " << tally.cases << " case(s) replayed, "
              << tally.planned << " planned, " << tally.planFailed
              << " plan failures, " << tally.execFailed
              << " exec failures\n";
    if (opt.checkSpans)
        std::cout << "llstat: span check "
                  << (tally.spanViolations ? "FAILED" : "ok") << " ("
                  << tally.spanViolations << " violation(s))\n";
    if (opt.profile)
        printProfile(trace::snapshotEvents());

    if (opt.traceReset) {
        const size_t events = trace::eventCount();
        const size_t dropped = trace::droppedCount();
        const bool wrote = trace::flushAndClear();
        std::cout << "llstat: trace buffer reset (" << events
                  << " event(s) and " << dropped
                  << " dropped discarded";
        if (wrote)
            std::cout << ", flushed to " << opt.tracePath << " first";
        std::cout << "; buffer now holds " << trace::eventCount()
                  << " event(s), " << trace::droppedCount()
                  << " dropped)\n";
    } else if (!opt.tracePath.empty()) {
        if (trace::flushToConfiguredPath())
            std::cout << "llstat: trace written to " << opt.tracePath
                      << " (" << trace::eventCount() << " events, "
                      << trace::droppedCount() << " dropped)\n";
        else
            std::cerr << "llstat: could not write trace to "
                      << opt.tracePath << "\n";
    }

    if (opt.metricsFormat == "text")
        metrics::Registry::instance().writeText(std::cout);
    else if (opt.metricsFormat == "json")
        metrics::Registry::instance().writeJson(std::cout);

    return tally.spanViolations || tally.planFailed || tally.execFailed
               ? 1
               : 0;
}
