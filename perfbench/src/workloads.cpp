#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <random>

#include <sched.h>
#include <sys/resource.h>

#include "check/generators.h"
#include "check/oracle.h"
#include "codegen/conversion.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "kernels.h"
#include "legacy/legacy_cost.h"
#include "service/interner.h"
#include "service/plan_cache.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "synth/synthesize.h"

namespace llperf {

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, int64_t>;

constexpr int kNumWarps = 4;
constexpr int kServeThreads = 2;
constexpr int kServeConversions = 200;
constexpr int kServeRepeats = 16;
constexpr const char *kPlatformNames[] = {"rtx4090", "gh200", "mi250"};

/** Span names, with the name of their inclusive-time metric. Only
 *  bench.pass has nested spans, so only its self time is a metric. */
constexpr std::pair<const char *, const char *> kSpans[] = {
    {"bench.pass", "bench.pass_ms"},
    {"engine.run", "engine.run_ms"},
    {"cost_model", "cost_model.ms"},
    {"legacy", "legacy.ms"},
    {"codegen.plan", "codegen.plan_ms"},
    {"codegen.smoke", "codegen.smoke_ms"},
    {"synth.search", "synth.search_ms"},
    {"synth.compile", "synth.compile_ms"},
    {"service.batch", "service.batch_ms"},
};

constexpr codegen::ConversionKind kKinds[] = {
    codegen::ConversionKind::NoOp,
    codegen::ConversionKind::RegisterPermute,
    codegen::ConversionKind::WarpShuffle,
    codegen::ConversionKind::SharedMemory,
    codegen::ConversionKind::SharedPadded,
    codegen::ConversionKind::SharedScalar,
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

sim::GpuSpec
platformSpec(int platform)
{
    switch (platform) {
      case 0:
        return sim::GpuSpec::rtx4090();
      case 1:
        return sim::GpuSpec::gh200();
      default:
        return sim::GpuSpec::mi250();
    }
}

/** Figure 9's platform rule: TMA kernels need GH200, large-shared
 *  kernels skip GPUs with less than 128 KiB per CTA. */
bool
kernelRunsOn(const kernels::KernelSpec &k, const sim::GpuSpec &spec)
{
    if (k.needsTma && !spec.hasTma)
        return false;
    return !k.needsLargeShared || spec.sharedMemPerCta >= 128 * 1024;
}

Counters
snapshot()
{
    return metrics::Registry::instance().counterSnapshot();
}

Counters
delta(const Counters &before, const Counters &after)
{
    Counters d;
    for (const auto &[name, value] : after) {
        auto it = before.find(name);
        d[name] = value - (it == before.end() ? 0 : it->second);
    }
    return d;
}

double
get(const Counters &c, const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank percentile, the same rule the service reports with. */
double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t rank = static_cast<size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

struct Failures
{
    int64_t count = 0;
    std::vector<std::string> notes;

    void
    add(std::string note)
    {
        ++count;
        if (notes.size() < 8)
            notes.push_back(std::move(note));
    }
};

/** A compiled case: the annotated IR and its modeled cycles. */
struct Compiled
{
    ir::Function f{""};
    engine::EngineStats stats;
    double llCycles = 0.0;
    double legacyCycles = 0.0;
};

engine::EngineOptions
caseOptions(const Case &c)
{
    engine::EngineOptions o;
    o.spec = c.spec;
    o.numWarps = kNumWarps;
    return o;
}

/** One default compile: LayoutEngine::run plus estimateKernelCost, whose
 *  wall time goes to `compileMs`; then legacy pricing. */
Compiled
compileCase(const Case &c, double *compileMs = nullptr)
{
    Compiled r;
    r.f = *c.proto;
    const auto t0 = Clock::now();
    {
        trace::Span s("engine.run", kSpanCat);
        r.stats = engine::LayoutEngine{caseOptions(c)}.run(r.f);
    }
    {
        trace::Span s("cost_model", kSpanCat);
        r.llCycles =
            engine::estimateKernelCost(r.f, c.spec, kNumWarps).cycles;
    }
    if (compileMs != nullptr)
        *compileMs = msSince(t0);
    trace::Span s("legacy", kSpanCat);
    r.legacyCycles =
        legacy::estimateLegacyKernelCost(r.f, c.spec, kNumWarps).cycles;
    return r;
}

/**
 * Timed-loop accumulator. Every pass replays the same operations in the
 * same order, so each operation keeps its best latency over the run, and
 * throughput is the best pass's. The benchmark runs on shared hosts
 * whose cores slow by tens of percent while neighbours load them; the
 * best of many passes, rotated over the cores (pinForPass), is what that
 * moves least.
 */
struct Loop
{
    std::vector<double> bestMs;
    double bestOpsPerS = 0.0;
    int64_t ops = 0;
    double wallMs = 0.0;
    int passes = 0;

    /** `latMs`: the pass's latency-timed operations, in their fixed
     *  order; `passOps`: every operation the pass completed. */
    void
    addPass(const std::vector<double> &latMs, int64_t passOps,
            double passWallMs)
    {
        if (bestMs.empty())
            bestMs = latMs;
        for (size_t i = 0; i < latMs.size(); ++i)
            bestMs[i] = std::min(bestMs[i], latMs[i]);
        bestOpsPerS = std::max(bestOpsPerS, static_cast<double>(passOps) /
                                                (passWallMs / 1e3));
        ops += passOps;
        wallMs += passWallMs;
        ++passes;
    }
};

/** The CPUs this process may run on, read once before any pinning. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    return cpus;
}

} // namespace

void
pinForPass(int pass, int width)
{
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    const size_t n = cpus.size();
    const size_t w = width > 0 ? std::min(static_cast<size_t>(width), n) : n;
    for (size_t k = 0; k < w; ++k)
        CPU_SET(cpus[(static_cast<size_t>(pass) + k) % n], &set);
    sched_setaffinity(0, sizeof set, &set);
}

namespace {

/** A fresh plan cache with its own interner, so every pass starts cold
 *  and the process-global interner does not warm up across passes. */
struct FreshCache
{
    std::unique_ptr<service::LayoutInterner> interner =
        std::make_unique<service::LayoutInterner>();
    std::unique_ptr<service::PlanCache> cache = makeCache(*interner);

    static std::unique_ptr<service::PlanCache>
    makeCache(service::LayoutInterner &interner)
    {
        service::PlanCache::Config config;
        config.interner = &interner;
        return std::make_unique<service::PlanCache>(config);
    }
};

/** suite_cold: one pass over every case. The first pass keeps its
 *  results; later passes must reproduce its cycles. */
void
compilePass(const Inputs &in, Loop &loop,
            std::vector<Compiled> &first, Failures &fails)
{
    const bool keep = first.empty();
    std::vector<double> latMs;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < in.cases.size(); ++i) {
        const Case &c = in.cases[i];
        double ms = 0.0;
        Compiled r = compileCase(c, &ms);
        latMs.push_back(ms);
        if (keep)
            first.push_back(std::move(r));
        else if (r.llCycles != first[i].llCycles)
            fails.add(c.kernel + ": modeled cycles differ between passes");
    }
    loop.addPass(latMs, static_cast<int64_t>(latMs.size()), msSince(t0));
}

} // namespace

/** A compile service (2 workers) over its own plan cache and interner. */
struct Server
{
    FreshCache cache;
    std::unique_ptr<service::CompileService> svc = make(kServeThreads);

    std::unique_ptr<service::CompileService>
    make(int threads)
    {
        service::CompileService::Options options;
        options.threads = threads;
        options.cache = cache.cache.get();
        options.engine.spec = sim::GpuSpec::gh200();
        options.engine.numWarps = kNumWarps;
        return std::make_unique<service::CompileService>(options);
    }

    service::ServiceReport
    run(const std::vector<service::CompileRequest> &requests)
    {
        trace::Span s("service.batch", kSpanCat);
        return svc->run(requests);
    }

    /** Fill the cache by serving `requests` once on one worker. */
    void
    warm(const std::vector<service::CompileRequest> &requests)
    {
        make(1)->run(requests);
    }
};

namespace {

/** Every response reached Planned, and each kernel response agrees with
 *  `expect` (the first batch's response at the same index, or nothing
 *  when this is the first batch). */
void
checkResponses(const service::ServiceReport &report,
               const service::ServiceReport *expect, Failures &fails)
{
    for (size_t i = 0; i < report.responses.size(); ++i) {
        const auto &r = report.responses[i];
        if (r.outcome != service::RequestOutcome::Planned) {
            fails.add(r.name + ": " + service::toString(r.outcome) +
                      " " + r.error);
            continue;
        }
        if (expect == nullptr)
            continue;
        const auto &e = expect->responses[i].stats;
        if (r.stats.convertsPlanned != e.convertsPlanned ||
            r.stats.convertsInserted != e.convertsInserted ||
            r.stats.convertsEliminated != e.convertsEliminated)
            fails.add(r.name + ": engine stats differ between batches");
    }
}

/** A distinct surviving conversion to replay and audit. */
struct AuditEntry
{
    LinearLayout src;
    LinearLayout dst;
    int elemBytes = 0;
    sim::GpuSpec spec;
    /** The op's "convert:<kind>" tag; empty for conversion requests. */
    std::string tag;
    /** serve_mixed conversion requests: the plan the service cached. */
    std::shared_ptr<const codegen::ConversionPlan> served;
};

using AuditSet = std::map<std::string, AuditEntry>;

std::string
auditKey(const LinearLayout &src, const LinearLayout &dst, int elemBytes,
         const sim::GpuSpec &spec)
{
    return src.toString() + " -> " + dst.toString() + " b" +
           std::to_string(elemBytes) + " @" + spec.name;
}

/** Add every surviving ConvertLayout of `f` to the audit set. */
void
collectConversions(const ir::Function &f, const sim::GpuSpec &spec,
                   AuditSet &audit, Failures &fails)
{
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased || o.kind != ir::OpKind::ConvertLayout)
            continue;
        const ir::Value &src = f.value(o.operands[0]);
        const ir::Value &dst = f.value(o.results[0]);
        if (!src.layout || !dst.layout) {
            fails.add(f.name() + ": conversion without layouts");
            continue;
        }
        if (o.tag == "convert:unplanned") {
            fails.add(f.name() + ": op " + std::to_string(i) +
                      " convert:unplanned");
            continue;
        }
        const int elemBytes = ir::byteWidth(src.type.dtype);
        auto [it, inserted] = audit.try_emplace(
            auditKey(*src.layout, *dst.layout, elemBytes, spec));
        if (inserted)
            it->second = {*src.layout, *dst.layout, elemBytes, spec,
                          o.tag, nullptr};
        else if (it->second.tag != o.tag)
            fails.add(f.name() + ": one conversion tagged " + o.tag +
                      " and " + it->second.tag);
    }
}

/**
 * The output check and codegen replay: re-plan every distinct
 * conversion from its endpoint layouts (its kind must match the op's
 * tag, and a served plan must describe identically), smoke-execute it,
 * then oracle-audit it. Returns the registry deltas of the replay
 * (planning and smoke execution, not the oracle).
 */
Counters
replayAndAudit(const AuditSet &audit, int64_t &audited,
               Failures &fails)
{
    std::vector<std::pair<const AuditEntry *, codegen::ConversionPlan>>
        plans;
    const Counters before = snapshot();
    for (const auto &[key, e] : audit) {
        std::optional<codegen::ConversionPlan> plan;
        {
            trace::Span s("codegen.plan", kSpanCat);
            auto r = codegen::tryPlanConversion(e.src, e.dst, e.elemBytes,
                                                e.spec);
            if (r)
                plan = std::move(r.value());
        }
        if (!plan) {
            fails.add("replay failed to plan " + key);
            continue;
        }
        const std::string kind = codegen::toString(plan->kind);
        if (!e.tag.empty() && e.tag != "convert:" + kind)
            fails.add("replay planned " + kind + " for an op tagged " +
                      e.tag);
        if (e.served &&
            codegen::describePlan(*e.served) != codegen::describePlan(*plan))
            fails.add("the service's cached plan differs from a fresh "
                      "plan for " + key);
        std::optional<ExecDiagnostic> diag;
        {
            trace::Span s("codegen.smoke", kSpanCat);
            diag = codegen::smokeExecutePlan(*plan, e.src, e.dst,
                                             e.elemBytes, e.spec);
        }
        if (diag) {
            fails.add("smoke execution failed: " + diag->toString());
            continue;
        }
        plans.emplace_back(&e, std::move(*plan));
    }
    const Counters replay = delta(before, snapshot());
    for (const auto &[e, plan] : plans) {
        const check::OracleReport report =
            check::checkPlan(plan, e->src, e->dst, e->elemBytes, e->spec);
        ++audited;
        if (!report.ok())
            fails.add("oracle: " + report.toString());
    }
    return replay;
}

/** The default compile of every case (fresh engine, no cache, no
 *  synthesis), priced by both cost models. */
std::vector<Compiled>
referenceCompiles(const Inputs &in)
{
    std::vector<Compiled> ref;
    ref.reserve(in.cases.size());
    for (const Case &c : in.cases)
        ref.push_back(compileCase(c));
    return ref;
}

/** Code-quality metrics over `out`. Terms are summed in sorted order,
 *  so the case order a seed picks does not change the last digits. */
void
qualityMetrics(const Inputs &in, const std::vector<Compiled> &out,
               std::map<std::string, double> &m)
{
    auto sortedSum = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return sum;
    };
    std::array<std::vector<double>, 3> logs;
    std::vector<double> cycles;
    double converts = 0.0;
    for (size_t i = 0; i < in.cases.size(); ++i) {
        logs[static_cast<size_t>(in.cases[i].platform)].push_back(
            std::log(out[i].legacyCycles /
                     std::max(out[i].llCycles, 1.0)));
        cycles.push_back(out[i].llCycles);
        converts += out[i].f.countOps(ir::OpKind::ConvertLayout);
    }
    for (size_t p = 0; p < 3; ++p)
        m[std::string("speedup.") + kPlatformNames[p]] =
            logs[p].empty() ? 0.0
                            : std::exp(sortedSum(logs[p]) /
                                       static_cast<double>(logs[p].size()));
    m["modeled_kcycles"] = sortedSum(cycles) / 1e3;
    m["converts_surviving"] = converts;
}

void
engineCounters(const Counters &d, std::map<std::string, double> &m)
{
    for (const char *name :
         {"engine.converts_inserted", "engine.converts_eliminated",
          "engine.converts_planned", "engine.plan_fallbacks",
          "engine.smoke.cache_hits"})
        m[name] = get(d, name);
}

/** The planner's counter of evaluations of the rung that yields `kind`;
 *  it spells the no-op rung "noop". */
std::string
rungCounter(codegen::ConversionKind kind)
{
    return std::string("plan.rung.") +
           (kind == codegen::ConversionKind::NoOp ? "noop"
                                                   : codegen::toString(kind)) +
           ".evaluated";
}

void
codegenCounters(const Counters &d, std::map<std::string, double> &m)
{
    for (codegen::ConversionKind kind : kKinds) {
        const std::string k = codegen::toString(kind);
        m[rungCounter(kind)] = get(d, rungCounter(kind));
        m["plan.kind." + k] = get(d, "plan.kind." + k);
    }
    for (const char *name :
         {"plan.planned", "plan.shared.candidates",
          "plan.shared.cta_rejected", "exec.shared.runs",
          "exec.shared.passes", "exec.shared.bytes_moved",
          "exec.shared.wavefronts"})
        m[name] = get(d, name);
    m["plan.shared.cta_rejected_ratio"] =
        ratio(m["plan.shared.cta_rejected"], m["plan.shared.candidates"]);
    m["plan.scalar_share"] =
        ratio(m["plan.kind.shared-scalar"], m["plan.planned"]);
}

void
serviceMetrics(const std::vector<service::CompileRequest> &requests,
               const service::ServiceReport &report, const Counters &d,
               std::map<std::string, double> &m)
{
    std::vector<double> kernelUs, conversionUs;
    for (size_t i = 0; i < report.responses.size(); ++i)
        (requests[i].build ? kernelUs : conversionUs)
            .push_back(report.responses[i].latencyUs);
    m["service.request_us.kernel.p50"] = percentile(kernelUs, 50.0);
    m["service.request_us.kernel.p99"] = percentile(kernelUs, 99.0);
    m["service.request_us.conversion.p50"] =
        percentile(conversionUs, 50.0);
    const double hits = get(d, "service.plan_cache.hits");
    const double lookups = hits + get(d, "service.plan_cache.misses") +
                           get(d, "service.plan_cache.negative_hits");
    m["service.plan_cache.lookups"] = lookups;
    m["service.plan_cache.hit_ratio"] = ratio(hits, lookups);
    m["service.requests"] = static_cast<double>(report.requests);
    m["service.fresh_plans"] = static_cast<double>(report.freshPlans);
    m["service.intern.hits"] = get(d, "service.intern.hits");
    m["service.intern.misses"] = get(d, "service.intern.misses");
    m["service.singleflight.follower"] =
        get(d, "service.singleflight.follower");
}

/** Kernel requests for every case plus one conversion request per
 *  audited conversion, all in one batch: the service probe for
 *  workloads whose loop does not reach the service. */
std::vector<service::CompileRequest>
probeRequests(const Inputs &in, const AuditSet &audit)
{
    std::vector<service::CompileRequest> requests;
    for (const Case &c : in.cases) {
        service::CompileRequest req;
        req.name = c.kernel;
        req.build = [proto = c.proto] { return *proto; };
        requests.push_back(std::move(req));
    }
    for (const auto &[key, e] : audit) {
        auto conv = std::make_shared<service::ConversionRequest>();
        *conv = {e.src, e.dst, e.elemBytes, e.spec};
        service::CompileRequest req;
        req.name = key;
        req.conversion = std::move(conv);
        requests.push_back(std::move(req));
    }
    return requests;
}

/**
 * The synth probe, over every case: a direct synthesizeAnchors call
 * (the search alone), then a compile with synthesizeLayouts on (search
 * plus the engine's repricing of the finalists), priced and checked to
 * be never worse than the case's default compile in `defaults`. One
 * plan cache per platform, as a synthesizing deployment would share.
 */
void
synthProbe(const Inputs &in, const std::vector<Compiled> &defaults,
           std::map<std::string, double> &m, Failures &fails)
{
    std::array<FreshCache, 3> caches;
    const Counters before = snapshot();
    double cycles = 0.0;
    for (size_t i = 0; i < in.cases.size(); ++i) {
        const Case &c = in.cases[i];
        service::PlanCache *cache =
            caches[static_cast<size_t>(c.platform)].cache.get();
        {
            synth::SynthOptions opt;
            opt.planCache = cache;
            trace::Span s("synth.search", kSpanCat);
            synth::synthesizeAnchors(*c.proto, c.spec, kNumWarps, opt);
        }
        engine::EngineOptions options = caseOptions(c);
        options.synthesizeLayouts = true;
        options.planCache = cache;
        ir::Function f = *c.proto;
        double llCycles = 0.0;
        {
            // One span for the whole synthesized compile, so the engine
            // and cost-model rows keep only default compiles.
            trace::Span s("synth.compile", kSpanCat);
            engine::LayoutEngine{options}.run(f);
            llCycles = engine::estimateKernelCost(f, c.spec, kNumWarps).cycles;
        }
        cycles += llCycles;
        if (llCycles > defaults[i].llCycles + 1e-6)
            fails.add(c.kernel + ": synthesis priced above the default");
    }
    const Counters d = delta(before, snapshot());
    for (const char *name :
         {"synth.assignments_evaluated", "synth.chose_synthesized",
          "synth.converts_eliminated"})
        m[name] = get(d, name);
    m["synth.modeled_kcycles"] = cycles / 1e3;
}

uint64_t
fnv1a(uint64_t h, const std::string &s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    if (name == "suite_cold")
        return Workload::SuiteCold;
    if (name == "serve_mixed")
        return Workload::ServeMixed;
    return std::nullopt;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"peak_rss_mb", "MB"},
        {"ops_per_s", "1/s"},
        {"latency_ms.p50", "ms"},
        {"latency_ms.p90", "ms"},
        {"speedup.rtx4090", "x"},
        {"speedup.gh200", "x"},
        {"speedup.mi250", "x"},
        {"modeled_kcycles", "kcycles"},
        {"converts_surviving", "count"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s;
        for (const auto &[span, incl] : kSpans)
            s.push_back({incl, "ms"});
        s.push_back({"bench.pass.self_ms", "ms"});
        for (const char *n :
             {"engine.converts_inserted", "engine.converts_eliminated",
              "engine.converts_planned", "engine.plan_fallbacks",
              "engine.smoke.cache_hits", "synth.assignments_evaluated",
              "synth.chose_synthesized", "synth.converts_eliminated",
              "plan.planned", "plan.shared.candidates",
              "plan.shared.cta_rejected", "exec.shared.runs",
              "exec.shared.passes", "exec.shared.wavefronts",
              "service.plan_cache.lookups", "service.requests",
              "service.fresh_plans", "service.intern.hits",
              "service.intern.misses", "service.singleflight.follower"})
            s.push_back({n, "count"});
        for (codegen::ConversionKind kind : kKinds) {
            const std::string k = codegen::toString(kind);
            s.push_back({rungCounter(kind), "count"});
            s.push_back({"plan.kind." + k, "count"});
        }
        s.push_back({"exec.shared.bytes_moved", "bytes"});
        s.push_back({"synth.modeled_kcycles", "kcycles"});
        s.push_back({"plan.shared.cta_rejected_ratio", "ratio"});
        s.push_back({"plan.scalar_share", "ratio"});
        s.push_back({"service.plan_cache.hit_ratio", "ratio"});
        s.push_back({"service.request_us.kernel.p50", "us"});
        s.push_back({"service.request_us.kernel.p99", "us"});
        s.push_back({"service.request_us.conversion.p50", "us"});
        s.push_back({"trace.untraced_op_ms", "ms"});
        s.push_back({"trace.traced_op_ms", "ms"});
        s.push_back({"trace.overhead_pct", "%"});
        return s;
    }();
    return specs;
}

Inputs
buildInputs(Workload workload, uint64_t seed)
{
    Inputs in;
    for (int p = 0; p < 3; ++p) {
        const sim::GpuSpec spec = platformSpec(p);
        for (const auto &k : kernels::allKernels()) {
            if (!kernelRunsOn(k, spec))
                continue;
            for (int32_t size : k.sizes)
                in.cases.push_back(
                    {k.name, size, p, spec,
                     std::make_shared<const ir::Function>(k.build(size))});
        }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(in.cases.begin(), in.cases.end(), rng);
    if (workload != Workload::ServeMixed)
        return in;

    std::mt19937 draw(static_cast<uint32_t>(seed));
    for (int i = 0; i < kServeConversions; ++i) {
        check::ConversionCase c = check::randomConversionCase(draw);
        auto conv = std::make_shared<service::ConversionRequest>();
        *conv = {std::move(c.src), std::move(c.dst), c.elemBytes,
                 c.spec()};
        in.conversions.push_back(std::move(conv));
    }
    // Stream entries: case index for kernel requests, -1 - i for
    // conversion i.
    std::vector<int> order;
    for (int r = 0; r < kServeRepeats; ++r) {
        for (size_t i = 0; i < in.cases.size(); ++i)
            order.push_back(static_cast<int>(i));
        for (int i = 0; i < kServeConversions; ++i)
            order.push_back(-1 - i);
    }
    std::shuffle(order.begin(), order.end(), rng);
    in.stream.reserve(order.size());
    for (int entry : order) {
        service::CompileRequest req;
        if (entry >= 0) {
            const Case &c = in.cases[static_cast<size_t>(entry)];
            req.name = c.kernel;
            req.build = [proto = c.proto] { return *proto; };
        } else {
            req.name = "conversion";
            req.conversion = in.conversions[static_cast<size_t>(-1 - entry)];
        }
        in.stream.push_back(std::move(req));
        in.streamCase.push_back(entry >= 0 ? entry : -1);
    }
    // A serving deployment's cache outlives any one batch: the cold
    // batch that fills it is set-up, and the timed batches run warm.
    in.server = std::make_shared<Server>();
    in.server->warm(in.stream);
    return in;
}

RunResult
runWorkload(Workload workload, const Inputs &in, double seconds,
            bool traced)
{
    RunResult out;
    Failures fails;
    std::map<std::string, double> &m = out.metrics;

    // --- timed loop: whole passes ------------------------------------
    Loop loop;
    std::vector<Compiled> first;          // suite_cold
    service::ServiceReport firstReport;   // serve_mixed
    Counters firstPass;
    auto pass = [&] {
        pinForPass(loop.passes, workload == Workload::ServeMixed
                                    ? kServeThreads
                                    : 1);
        const Counters before = snapshot();
        trace::Span s("bench.pass", kSpanCat);
        if (workload == Workload::ServeMixed) {
            service::ServiceReport report = in.server->run(in.stream);
            // Keep only what the check reads: the per-run metric maps
            // and diagnostics of 1472 kernel compiles would otherwise
            // stay resident with the first batch.
            for (auto &r : report.responses) {
                r.stats.metrics.clear();
                r.stats.planDiagnostics.clear();
            }
            // Latency is timed on kernel requests, the compiles a caller
            // waits on; conversion requests are microsecond cache hits
            // (reported per layer) and count toward throughput only.
            std::vector<double> latMs;
            for (size_t i = 0; i < report.responses.size(); ++i)
                if (in.streamCase[i] >= 0)
                    latMs.push_back(report.responses[i].latencyUs / 1e3);
            loop.addPass(latMs, report.requests, report.wallMs);
            const bool isFirst = firstReport.responses.empty();
            checkResponses(report, isFirst ? nullptr : &firstReport, fails);
            if (isFirst)
                firstReport = std::move(report);
        } else {
            compilePass(in, loop, first, fails);
        }
        if (firstPass.empty())
            firstPass = delta(before, snapshot());
    };
    // Whole passes that fit in the budget (at least one); a traced run
    // spends half of it untraced and repeats as many passes traced.
    const double budgetMs = (traced ? seconds / 2 : seconds) * 1e3;
    const auto t0 = Clock::now();
    double lastPassMs = 0.0;
    do {
        const auto p0 = Clock::now();
        pass();
        lastPassMs = msSince(p0);
    } while (msSince(t0) + lastPassMs <= budgetMs);
    out.ops = loop.ops;
    if (traced) {
        const Loop untraced = loop;
        loop = Loop{};
        trace::clear();
        trace::setEnabled(true);
        for (int i = 0; i < untraced.passes; ++i) {
            pass();
            // The library records its own spans as well; emptying the
            // buffer every pass keeps it below its cap.
            collectSpans(out.table, "loop");
        }
        for (auto &[name, row] : out.table) {
            const double passes = untraced.passes;
            row.count = std::llround(static_cast<double>(row.count) / passes);
            row.inclMs /= passes;
            row.selfMs /= passes;
        }
        out.ops += loop.ops;
        m["trace.untraced_op_ms"] = untraced.wallMs / untraced.ops;
        m["trace.traced_op_ms"] = loop.wallMs / loop.ops;
        m["trace.overhead_pct"] =
            100.0 * (m["trace.traced_op_ms"] / m["trace.untraced_op_ms"] -
                     1.0);
    }
    pinForPass(0, 0);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    m["ops_per_s"] = loop.bestOpsPerS;
    m["latency_ms.p50"] = percentile(loop.bestMs, 50.0);
    // No p99: suite_cold times only 92 distinct cases, so p90 is its
    // highest percentile with about ten cases beyond it.
    m["latency_ms.p90"] = percentile(loop.bestMs, 90.0);
    engineCounters(firstPass, m);

    // --- output check (untimed) --------------------------------------
    AuditSet audit;
    if (workload == Workload::SuiteCold) {
        for (size_t i = 0; i < in.cases.size(); ++i)
            collectConversions(first[i].f, in.cases[i].spec, audit, fails);
    } else {
        // The default compile of every case, on its own platform, is
        // the output the quality metrics price; every kernel request
        // must match the GH200 compile of its kernel and size.
        first = referenceCompiles(in);
        std::map<std::pair<std::string, int32_t>, size_t> gh200;
        for (size_t i = 0; i < in.cases.size(); ++i) {
            collectConversions(first[i].f, in.cases[i].spec, audit, fails);
            if (in.cases[i].platform == 1)
                gh200[{in.cases[i].kernel, in.cases[i].size}] = i;
        }
        for (size_t i = 0; i < firstReport.responses.size(); ++i) {
            if (in.streamCase[i] < 0)
                continue;
            const Case &c = in.cases[static_cast<size_t>(in.streamCase[i])];
            const auto &want = first[gh200.at({c.kernel, c.size})].stats;
            const auto &got = firstReport.responses[i].stats;
            if (got.convertsPlanned != want.convertsPlanned ||
                got.convertsInserted != want.convertsInserted ||
                got.convertsEliminated != want.convertsEliminated)
                fails.add(c.kernel + ": service compile differs from the "
                                     "direct compile");
        }
        // Every drawn conversion: the plan the service cached is
        // replayed and audited like an engine conversion.
        service::PlanCache &cache = *in.server->cache.cache;
        uint64_t digest = 1469598103934665603ull;
        for (const auto &conv : in.conversions) {
            const std::string key = auditKey(conv->src, conv->dst,
                                             conv->elemBytes, conv->spec);
            digest = fnv1a(digest, key);
            auto hit = cache.peek(cache.key(conv->src, conv->dst,
                                            conv->elemBytes, conv->spec));
            if (!hit || !hit->plan) {
                fails.add("the service cached no plan for " + key);
                continue;
            }
            audit.try_emplace(key, AuditEntry{conv->src, conv->dst,
                                              conv->elemBytes, conv->spec,
                                              "", hit->plan});
        }
        out.drawDigest = digest;
    }
    qualityMetrics(in, first, m);
    const Counters replay = replayAndAudit(audit, out.audited, fails);
    codegenCounters(replay, m);

    // --- service metrics, from a probe when the loop has no service --
    if (workload == Workload::ServeMixed) {
        serviceMetrics(in.stream, firstReport, firstPass, m);
    } else if (traced) {
        const auto requests = probeRequests(in, audit);
        const Counters before = snapshot();
        Server probe;
        const service::ServiceReport report = probe.run(requests);
        checkResponses(report, nullptr, fails);
        serviceMetrics(requests, report, delta(before, snapshot()), m);
    }
    if (traced) {
        // A layer the loop reached keeps its loop row; the check and the
        // probes fill in the others.
        SpanTable after;
        collectSpans(after, "after");
        synthProbe(in, first, m, fails);
        collectSpans(after, "after");
        trace::setEnabled(false);
        for (const auto &[name, row] : after)
            out.table.try_emplace(name, row);
        for (const auto &[span, incl] : kSpans) {
            const auto it = out.table.find(span);
            m[incl] = it == out.table.end() ? 0.0 : it->second.inclMs;
        }
        m["bench.pass.self_ms"] = out.table["bench.pass"].selfMs;
    }

    out.failed = fails.count;
    out.problems = std::move(fails.notes);
    return out;
}

} // namespace llperf
