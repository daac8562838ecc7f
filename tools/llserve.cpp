/**
 * @file
 * llserve — drive the concurrent compilation service with a replayed
 * request stream and report its throughput, cache behavior, and (in
 * server mode) its overload posture.
 *
 * Workload (combinable):
 *
 *   --corpus DIR   every corpus case file in DIR becomes a
 *                  single-conversion request (the fuzzer's text
 *                  format, served through the coalesced cache path);
 *   --kernels      every Figure 9 kernel (first size knob) becomes a
 *                  whole-kernel compilation request through
 *                  LayoutEngine.
 *
 * Stream shaping (batch mode, the default):
 *
 *   --repeat K     replay the workload K times (a serving deployment
 *                  sees the same conversions over and over; repeat
 *                  passes are where the plan cache earns its keep);
 *   --shuffle      interleave the repeated stream with a deterministic
 *                  permutation (--seed S, default 42) so threads hit
 *                  overlapping keys at the same time instead of in
 *                  convoy order;
 *   --threads N    worker threads (default 4);
 *   --no-cache     plan every request fresh (the baseline for the
 *                  cache's speedup claims);
 *   --cache-capacity N  total plan-cache entries (default 4096).
 *
 * Server mode (open-loop Poisson arrivals; enabled by --rate or
 * --rate-x-saturation):
 *
 *   --rate R              mean arrival rate, requests/second;
 *   --rate-x-saturation X calibrate the closed-loop saturation
 *                         throughput (a cold batch pass then a warm
 *                         one) and offer X times that rate;
 *   --duration SEC        generation window (default 1.0);
 *   --max-requests N      cap the arrival count (deterministic tests);
 *   --queue-capacity N    admission queue bound (default 64);
 *   --policy P            block | shed-newest | shed-oldest;
 *   --deadline-ms D       per-request deadline from arrival;
 *   --retry-budget N      retries per request for failed attempts;
 *   --retry-backoff-ms B  base backoff, doubled per attempt, jittered;
 *   --slo-p99-ms P        p99 target over admitted requests;
 *   --service-floor-us F  minimum per-attempt service time (spin) so
 *                         overload drills have a controllable
 *                         saturation point;
 *   --rate-sweep M1,M2,.. serve once per multiplier of the base rate
 *                         and emit a throughput-vs-latency curve.
 *
 * Reporting: a human summary (throughput, hit rate, outcome split,
 * latency percentiles) plus a schema-valid BENCH_service.json written
 * next to the process or into $LL_BENCH_JSON_DIR — llstat
 * --validate-bench-json is the schema authority. Exit-code contracts
 * for ctest: --expect-hit-rate PCT (batch), --expect-slo,
 * --expect-sheds N, --expect-no-duplicate-plans; terminal request
 * failures always exit nonzero, shed / deadline-exceeded outcomes are
 * an expected serving posture and do not.
 *
 * BENCH_service.json's metrics carry the planner's
 * plan.rung.<rung>.evaluated and plan.kind.<kind> counters, which
 * `llprof --bench` sums into its per-rung evals/accepts table.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/case_io.h"
#include "kernels.h"
#include "service/compile_service.h"
#include "service/plan_cache.h"
#include "support/metrics.h"

using namespace ll;

namespace {

struct Options
{
    std::string corpusDir;
    bool kernels = false;
    /** Run kernel requests with EngineOptions::synthesizeLayouts: the
     *  whole-kernel anchor-assignment search picks the layout
     *  assignment instead of pure propagation. Corpus (conversion)
     *  requests are unaffected — they carry explicit endpoint
     *  layouts. */
    bool synth = false;
    int threads = 4;
    int repeat = 1;
    bool shuffle = false;
    uint64_t seed = 42;
    bool noCache = false;
    size_t cacheCapacity = 4096;
    /** Exit nonzero when the hit rate lands below this (percent);
     *  negative disables the check. Batch mode only. */
    double expectHitRate = -1.0;

    // Server mode.
    double ratePerSec = 0.0;
    double rateXSaturation = 0.0;
    double durationSec = 1.0;
    int64_t maxRequests = 0;
    size_t queueCapacity = 64;
    service::AdmissionPolicy policy =
        service::AdmissionPolicy::ShedOldest;
    double deadlineMs = 0.0;
    int retryBudget = 0;
    double retryBackoffMs = 1.0;
    double sloP99Ms = 0.0;
    double serviceFloorUs = 0.0;
    std::vector<double> rateSweep;

    bool expectSlo = false;
    int64_t expectSheds = -1;
    bool expectNoDuplicatePlans = false;

    bool serverMode() const
    {
        return ratePerSec > 0.0 || rateXSaturation > 0.0;
    }
};

void
usage()
{
    std::cerr
        << "usage: llserve [--corpus DIR] [--kernels] [--synth]\n"
           "               [--threads N]\n"
           "               [--repeat K] [--shuffle] [--seed S]\n"
           "               [--no-cache] [--cache-capacity N]\n"
           "               [--expect-hit-rate PCT]\n"
           "           server mode:\n"
           "               [--rate R | --rate-x-saturation X]\n"
           "               [--duration SEC] [--max-requests N]\n"
           "               [--queue-capacity N]\n"
           "               [--policy block|shed-newest|shed-oldest]\n"
           "               [--deadline-ms D] [--retry-budget N]\n"
           "               [--retry-backoff-ms B] [--slo-p99-ms P]\n"
           "               [--service-floor-us F]\n"
           "               [--rate-sweep M1,M2,...]\n"
           "               [--expect-slo] [--expect-sheds N]\n"
           "               [--expect-no-duplicate-plans]\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto needValue = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "llserve: " << name << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--corpus") {
            const char *v = needValue("--corpus");
            if (!v)
                return false;
            opt.corpusDir = v;
        } else if (arg == "--kernels") {
            opt.kernels = true;
        } else if (arg == "--synth") {
            opt.synth = true;
        } else if (arg == "--threads") {
            const char *v = needValue("--threads");
            if (!v)
                return false;
            opt.threads = std::max(1, std::atoi(v));
        } else if (arg == "--repeat") {
            const char *v = needValue("--repeat");
            if (!v)
                return false;
            opt.repeat = std::max(1, std::atoi(v));
        } else if (arg == "--shuffle") {
            opt.shuffle = true;
        } else if (arg == "--seed") {
            const char *v = needValue("--seed");
            if (!v)
                return false;
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--no-cache") {
            opt.noCache = true;
        } else if (arg == "--cache-capacity") {
            const char *v = needValue("--cache-capacity");
            if (!v)
                return false;
            opt.cacheCapacity = static_cast<size_t>(
                std::max(1LL, std::atoll(v)));
        } else if (arg == "--expect-hit-rate") {
            const char *v = needValue("--expect-hit-rate");
            if (!v)
                return false;
            opt.expectHitRate = std::atof(v);
        } else if (arg == "--rate") {
            const char *v = needValue("--rate");
            if (!v)
                return false;
            opt.ratePerSec = std::atof(v);
        } else if (arg == "--rate-x-saturation") {
            const char *v = needValue("--rate-x-saturation");
            if (!v)
                return false;
            opt.rateXSaturation = std::atof(v);
        } else if (arg == "--duration") {
            const char *v = needValue("--duration");
            if (!v)
                return false;
            opt.durationSec = std::atof(v);
        } else if (arg == "--max-requests") {
            const char *v = needValue("--max-requests");
            if (!v)
                return false;
            opt.maxRequests = std::atoll(v);
        } else if (arg == "--queue-capacity") {
            const char *v = needValue("--queue-capacity");
            if (!v)
                return false;
            opt.queueCapacity = static_cast<size_t>(
                std::max(1LL, std::atoll(v)));
        } else if (arg == "--policy") {
            const char *v = needValue("--policy");
            if (!v)
                return false;
            auto policy = service::parseAdmissionPolicy(v);
            if (!policy) {
                std::cerr << "llserve: unknown policy " << v
                          << " (want block | shed-newest | "
                             "shed-oldest)\n";
                return false;
            }
            opt.policy = *policy;
        } else if (arg == "--deadline-ms") {
            const char *v = needValue("--deadline-ms");
            if (!v)
                return false;
            opt.deadlineMs = std::atof(v);
        } else if (arg == "--retry-budget") {
            const char *v = needValue("--retry-budget");
            if (!v)
                return false;
            opt.retryBudget = std::max(0, std::atoi(v));
        } else if (arg == "--retry-backoff-ms") {
            const char *v = needValue("--retry-backoff-ms");
            if (!v)
                return false;
            opt.retryBackoffMs = std::atof(v);
        } else if (arg == "--slo-p99-ms") {
            const char *v = needValue("--slo-p99-ms");
            if (!v)
                return false;
            opt.sloP99Ms = std::atof(v);
        } else if (arg == "--service-floor-us") {
            const char *v = needValue("--service-floor-us");
            if (!v)
                return false;
            opt.serviceFloorUs = std::atof(v);
        } else if (arg == "--rate-sweep") {
            const char *v = needValue("--rate-sweep");
            if (!v)
                return false;
            std::string list = v;
            size_t pos = 0;
            while (pos < list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                const double m =
                    std::atof(list.substr(pos, comma - pos).c_str());
                if (m > 0.0)
                    opt.rateSweep.push_back(m);
                pos = comma + 1;
            }
            if (opt.rateSweep.empty()) {
                std::cerr << "llserve: --rate-sweep wants positive "
                             "multipliers, e.g. 0.5,1,2\n";
                return false;
            }
        } else if (arg == "--expect-slo") {
            opt.expectSlo = true;
        } else if (arg == "--expect-sheds") {
            const char *v = needValue("--expect-sheds");
            if (!v)
                return false;
            opt.expectSheds = std::atoll(v);
        } else if (arg == "--expect-no-duplicate-plans") {
            opt.expectNoDuplicatePlans = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "llserve: unknown option " << arg << "\n";
            usage();
            return false;
        }
    }
    if (opt.corpusDir.empty() && !opt.kernels) {
        std::cerr << "llserve: nothing to serve (want --corpus and/or "
                     "--kernels)\n";
        usage();
        return false;
    }
    if (opt.ratePerSec > 0.0 && opt.rateXSaturation > 0.0) {
        std::cerr << "llserve: --rate and --rate-x-saturation are "
                     "mutually exclusive\n";
        return false;
    }
    if (opt.expectNoDuplicatePlans && opt.noCache) {
        std::cerr << "llserve: --expect-no-duplicate-plans needs the "
                     "plan cache (drop --no-cache)\n";
        return false;
    }
    return true;
}

bool
buildCorpusRequests(const std::string &dir,
                    std::vector<service::CompileRequest> &out)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        // Only .txt files hold linear conversion cases; the corpus
        // dir also carries .cute seeds in the cute layout format.
        if (entry.is_regular_file() &&
            entry.path().extension() == ".txt")
            files.push_back(entry.path().string());
    }
    if (ec) {
        std::cerr << "llserve: cannot read corpus dir " << dir << ": "
                  << ec.message() << "\n";
        return false;
    }
    if (files.empty()) {
        std::cerr << "llserve: corpus dir " << dir
                  << " holds no case files\n";
        return false;
    }
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        check::ConversionCase c;
        try {
            c = check::readCaseFile(path);
        } catch (const std::exception &e) {
            std::cerr << "llserve: " << path << ": " << e.what()
                      << "\n";
            return false;
        }
        auto conv = std::make_shared<service::ConversionRequest>();
        conv->src = std::move(c.src);
        conv->dst = std::move(c.dst);
        conv->elemBytes = c.elemBytes;
        conv->spec = c.spec();
        service::CompileRequest req;
        req.name = c.summary.empty() ? path : c.summary;
        req.conversion = std::move(conv);
        out.push_back(std::move(req));
    }
    return true;
}

void
buildKernelRequests(std::vector<service::CompileRequest> &out)
{
    for (const auto &spec : kernels::allKernels()) {
        service::CompileRequest req;
        req.name = "kernel:" + spec.name;
        req.build = [build = spec.build,
                     size = spec.sizes.front()]() {
            return build(size);
        };
        out.push_back(std::move(req));
    }
}

/** Planner-duplication accounting for the conversion stream: how many
 *  fresh planner runs happened versus how many distinct keys ended up
 *  planned. With singleflight, a cold stream should show zero
 *  duplicates — every distinct key planned exactly once. */
struct DuplicateStats
{
    int64_t uniqueKeys = 0;
    int64_t uniquePlannedKeys = 0;
    int64_t duplicatePlans = 0;
};

DuplicateStats
computeDuplicateStats(service::PlanCache *cache,
                      const std::vector<service::CompileRequest> &stream,
                      const service::ServiceReport &report)
{
    DuplicateStats dup;
    if (cache == nullptr || stream.empty())
        return dup;
    std::unordered_set<service::PlanKey, service::PlanKeyHash> all;
    std::unordered_set<service::PlanKey, service::PlanKeyHash> planned;
    for (size_t i = 0; i < report.responses.size(); ++i) {
        const auto &req = stream[i % stream.size()];
        if (!req.conversion)
            continue;
        const auto &c = *req.conversion;
        const service::PlanKey key =
            cache->key(c.src, c.dst, c.elemBytes, c.spec);
        all.insert(key);
        if (report.responses[i].outcome ==
            service::RequestOutcome::Planned)
            planned.insert(key);
    }
    dup.uniqueKeys = static_cast<int64_t>(all.size());
    dup.uniquePlannedKeys = static_cast<int64_t>(planned.size());
    dup.duplicatePlans = std::max<int64_t>(
        0, report.freshPlans - dup.uniquePlannedKeys);
    return dup;
}

struct CurvePoint
{
    double ratePerSec = 0.0;
    double goodputPerSec = 0.0;
    double p99Ms = 0.0;
    int64_t shed = 0;
};

double
computeHitRatePct(const service::ServiceReport &report)
{
    const auto &t = report.totals;
    const int64_t lookups = static_cast<int64_t>(t.planCacheHits) +
                            t.planCacheNegativeHits + t.planCacheMisses;
    return lookups > 0
               ? 100.0 *
                     static_cast<double>(t.planCacheHits +
                                         t.planCacheNegativeHits) /
                     static_cast<double>(lookups)
               : 0.0;
}

/** BENCH_service.json, same schema as bench::emitBenchJson (llstat
 *  --validate-bench-json is the authority). The service report always
 *  carries the terminal-outcome split — llstat refuses a "service"
 *  report without it. */
bool
writeBenchJson(const Options &opt, const service::ServiceReport &report,
               double hitRatePct, const DuplicateStats &dup,
               const std::vector<CurvePoint> &curve)
{
    std::string dir = ".";
    if (const char *env = std::getenv("LL_BENCH_JSON_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_service.json";
    std::ofstream os(path);
    if (!os.good()) {
        std::cerr << "llserve: cannot write " << path << "\n";
        return false;
    }
    char buf[512];
    os << "{\n"
       << "  \"name\": \"service\",\n"
       << "  \"reps\": " << opt.repeat << ",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"wall_ms\": {\"median\": %.6g, \"p90\": %.6g, "
                  "\"total\": %.6g},\n",
                  report.p50LatencyUs / 1e3, report.p90LatencyUs / 1e3,
                  report.wallMs);
    os << buf << "  \"metrics\": {";
    bool first = true;
    auto emit = [&](const std::string &key, double value) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g",
                      first ? "" : ", ", key.c_str(), value);
        os << buf;
        first = false;
    };
    emit("service.stream.requests",
         static_cast<double>(report.requests));
    emit("service.stream.failures",
         static_cast<double>(report.failures));
    emit("service.stream.planned",
         static_cast<double>(report.planned));
    emit("service.stream.shed", static_cast<double>(report.shed));
    emit("service.stream.deadline_exceeded",
         static_cast<double>(report.deadlineExceeded));
    emit("service.stream.failed", static_cast<double>(report.failed));
    emit("service.stream.retries",
         static_cast<double>(report.retries));
    emit("service.stream.coalesced",
         static_cast<double>(report.coalesced));
    emit("service.stream.fresh_plans",
         static_cast<double>(report.freshPlans));
    emit("service.stream.unique_keys",
         static_cast<double>(dup.uniqueKeys));
    emit("service.stream.duplicate_plans",
         static_cast<double>(dup.duplicatePlans));
    emit("service.stream.threads", report.threads);
    emit("service.stream.requests_per_sec", report.requestsPerSec);
    emit("service.stream.hit_rate_pct", hitRatePct);
    emit("service.stream.p99_ms", report.p99LatencyUs / 1e3);
    if (opt.serverMode()) {
        emit("service.stream.offered_rate", report.offeredRatePerSec);
        emit("service.stream.achieved_rate", report.requestsPerSec);
        emit("service.stream.goodput_per_sec", report.goodputPerSec);
        emit("service.stream.slo_p99_ms", report.sloP99Ms);
        emit("service.stream.slo_ok", report.sloOk ? 1.0 : 0.0);
        emit("service.stream.queue_max_depth",
             static_cast<double>(report.queueStats.maxDepth));
    }
    for (size_t k = 0; k < curve.size(); ++k) {
        const std::string prefix =
            "service.curve." + std::to_string(k) + ".";
        emit(prefix + "rate", curve[k].ratePerSec);
        emit(prefix + "goodput", curve[k].goodputPerSec);
        emit(prefix + "p99_ms", curve[k].p99Ms);
        emit(prefix + "shed", static_cast<double>(curve[k].shed));
    }
    for (const auto &[name, delta] : report.totals.metrics)
        emit(name, static_cast<double>(delta));
    os << "}\n}\n";
    std::cout << "llserve: wrote " << path << "\n";
    return true;
}

void
printOutcomeSplit(const service::ServiceReport &report)
{
    std::cout << "llserve: outcomes: " << report.planned
              << " planned, " << report.shed << " shed, "
              << report.deadlineExceeded << " deadline-exceeded, "
              << report.failed << " failed; " << report.retries
              << " retry(ies), " << report.coalesced
              << " coalesced, " << report.freshPlans
              << " fresh plan(s)\n";
}

void
printCacheLine(service::PlanCache *cache,
               const service::ServiceReport &report, double hitRatePct)
{
    const auto &t = report.totals;
    if (cache) {
        auto cs = cache->stats();
        std::cout << "llserve: plan cache: " << t.planCacheHits
                  << " hit(s), " << t.planCacheNegativeHits
                  << " negative hit(s), " << t.planCacheMisses
                  << " miss(es) — hit rate " << hitRatePct
                  << "%; size " << cache->size() << "/"
                  << cache->capacity() << ", " << cs.evictions
                  << " eviction(s), " << cs.insertRefusals
                  << " insert refusal(s)\n";
    } else {
        std::cout << "llserve: plan cache disabled (--no-cache)\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    std::vector<service::CompileRequest> base;
    if (!opt.corpusDir.empty() &&
        !buildCorpusRequests(opt.corpusDir, base))
        return 2;
    if (opt.kernels)
        buildKernelRequests(base);

    std::vector<service::CompileRequest> stream;
    stream.reserve(base.size() * static_cast<size_t>(opt.repeat));
    for (int k = 0; k < opt.repeat; ++k)
        stream.insert(stream.end(), base.begin(), base.end());
    if (opt.shuffle) {
        std::mt19937_64 rng(opt.seed);
        std::shuffle(stream.begin(), stream.end(), rng);
    }

    std::unique_ptr<service::PlanCache> cache;
    if (!opt.noCache) {
        service::PlanCache::Config config;
        config.capacity = opt.cacheCapacity;
        cache = std::make_unique<service::PlanCache>(config);
    }

    service::CompileService::Options serviceOptions;
    serviceOptions.threads = opt.threads;
    serviceOptions.cache = cache.get();
    serviceOptions.serviceFloorUs = opt.serviceFloorUs;
    serviceOptions.engine.synthesizeLayouts = opt.synth;
    if (opt.synth)
        std::cout << "llserve: layout synthesis on for kernel "
                     "requests (--synth)\n";
    service::CompileService svc{serviceOptions};

    service::ServiceReport report;
    std::vector<CurvePoint> curve;

    if (opt.serverMode()) {
        double baseRate = opt.ratePerSec;
        if (opt.rateXSaturation > 0.0) {
            // Closed-loop calibration: a cold pass to populate the
            // cache, then a warm pass whose throughput is the
            // saturation point of the steady-state service.
            svc.run(stream);
            auto warm = svc.run(stream);
            const double saturation = warm.requestsPerSec;
            if (saturation <= 0.0) {
                std::cerr << "llserve: saturation calibration "
                             "produced no throughput\n";
                return 1;
            }
            baseRate = opt.rateXSaturation * saturation;
            std::cout << "llserve: calibrated saturation "
                      << saturation << " req/s; offering "
                      << opt.rateXSaturation << "x = " << baseRate
                      << " req/s\n";
        }

        std::vector<double> multipliers = opt.rateSweep;
        if (multipliers.empty())
            multipliers.push_back(1.0);

        service::CompileService::ServerConfig cfg;
        cfg.durationSec = opt.durationSec;
        cfg.seed = opt.seed;
        cfg.maxRequests = opt.maxRequests;
        cfg.queueCapacity = opt.queueCapacity;
        cfg.policy = opt.policy;
        cfg.deadlineMs = opt.deadlineMs;
        cfg.retryBudget = opt.retryBudget;
        cfg.retryBackoffMs = opt.retryBackoffMs;
        cfg.sloP99Ms = opt.sloP99Ms;

        for (const double m : multipliers) {
            cfg.ratePerSec = baseRate * m;
            report = svc.serve(stream, cfg);
            CurvePoint point;
            point.ratePerSec = cfg.ratePerSec;
            point.goodputPerSec = report.goodputPerSec;
            point.p99Ms = report.p99LatencyUs / 1e3;
            point.shed = report.shed;
            curve.push_back(point);
            if (multipliers.size() > 1)
                std::cout << "llserve: sweep " << m << "x: offered "
                          << cfg.ratePerSec << " req/s, goodput "
                          << report.goodputPerSec << " req/s, p99 "
                          << report.p99LatencyUs / 1e3 << " ms, "
                          << report.shed << " shed\n";
        }
    } else {
        report = svc.run(stream);
    }

    const double hitRatePct = computeHitRatePct(report);
    const DuplicateStats dup =
        computeDuplicateStats(cache.get(), stream, report);

    if (opt.serverMode()) {
        std::cout << "llserve: server: offered "
                  << report.offeredRatePerSec << " req/s for "
                  << opt.durationSec << " s -> " << report.requests
                  << " arrival(s) on " << report.threads
                  << " thread(s), wall " << report.wallMs << " ms\n";
        printOutcomeSplit(report);
        std::cout << "llserve: latency (admitted) p50 "
                  << report.p50LatencyUs << " us, p90 "
                  << report.p90LatencyUs << " us, p99 "
                  << report.p99LatencyUs << " us; goodput "
                  << report.goodputPerSec << " req/s\n";
        if (report.sloP99Ms > 0.0)
            std::cout << "llserve: SLO p99 <= " << report.sloP99Ms
                      << " ms: "
                      << (report.sloOk ? "OK" : "VIOLATED") << "\n";
        const auto &qs = report.queueStats;
        std::cout << "llserve: queue: " << qs.admitted
                  << " admitted, " << qs.shedNewest
                  << " shed-newest, " << qs.shedOldest
                  << " shed-oldest, " << qs.shedFailpoint
                  << " failpoint-shed, max depth " << qs.maxDepth
                  << "\n";
        const auto &fs = report.flightStats;
        std::cout << "llserve: singleflight: " << fs.leaders
                  << " leader(s), " << fs.followers
                  << " follower(s), " << fs.timeouts
                  << " timeout(s)\n";
    } else {
        std::cout << "llserve: " << report.requests
                  << " request(s) on " << report.threads
                  << " thread(s) in " << report.wallMs << " ms ("
                  << report.requestsPerSec << " req/s), "
                  << report.failures << " failure(s)\n";
        printOutcomeSplit(report);
        std::cout << "llserve: latency p50 " << report.p50LatencyUs
                  << " us, p90 " << report.p90LatencyUs << " us, p99 "
                  << report.p99LatencyUs << " us\n";
    }
    printCacheLine(cache.get(), report, hitRatePct);
    if (cache)
        std::cout << "llserve: plans: " << report.freshPlans
                  << " fresh across " << dup.uniquePlannedKeys
                  << " planned key(s) (" << dup.uniqueKeys
                  << " distinct key(s) offered), "
                  << dup.duplicatePlans << " duplicate(s)\n";

    if (!writeBenchJson(opt, report, hitRatePct, dup, curve))
        return 1;

    int rc = 0;
    if (report.failed > 0) {
        std::cerr << "llserve: " << report.failed
                  << " request(s) failed terminally\n";
        rc = 1;
    }
    if (!opt.serverMode() &&
        (report.shed > 0 || report.deadlineExceeded > 0)) {
        // Batch mode has no admission control or deadlines; these
        // outcomes appearing means something is broken.
        std::cerr << "llserve: unexpected non-planned outcomes in "
                     "batch mode\n";
        rc = 1;
    }
    if (opt.expectHitRate >= 0.0 && hitRatePct < opt.expectHitRate) {
        std::cerr << "llserve: hit rate " << hitRatePct
                  << "% below expected " << opt.expectHitRate << "%\n";
        rc = 1;
    }
    if (opt.expectSlo && !report.sloOk) {
        std::cerr << "llserve: SLO violated: p99 "
                  << report.p99LatencyUs / 1e3 << " ms > "
                  << report.sloP99Ms << " ms\n";
        rc = 1;
    }
    if (opt.expectSheds >= 0 && report.shed < opt.expectSheds) {
        std::cerr << "llserve: expected at least " << opt.expectSheds
                  << " shed(s), saw " << report.shed << "\n";
        rc = 1;
    }
    if (opt.expectNoDuplicatePlans && dup.duplicatePlans > 0) {
        std::cerr << "llserve: " << dup.duplicatePlans
                  << " duplicate planner run(s) on the stream "
                     "(singleflight should have coalesced them)\n";
        rc = 1;
    }
    return rc;
}
