/**
 * @file
 * The benchmark's workloads: their seeded inputs, their timed loops, the
 * output check that follows each loop, and the metrics they report.
 *
 * suite_cold    the 92 Figure 9 cases, one thread, a fresh LayoutEngine
 *               per case (no plan cache, synthesis off), priced by the
 *               linear-layout and legacy cost models.
 * serve_mixed   one CompileService batch per pass, 2 workers and one
 *               PlanCache, over the 92 kernel requests plus 200 seeded
 *               conversion requests, repeated 16x and shuffled. Set-up
 *               serves one cold batch; the timed batches run warm.
 *
 * Both are closed loops: each caller waits for its compile or conversion
 * before it sends the next.
 */

#ifndef LLPERF_WORKLOADS_H
#define LLPERF_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/function.h"
#include "service/compile_service.h"
#include "sim/gpu_spec.h"
#include "spans.h"

namespace llperf {

using namespace ll;

enum class Workload
{
    SuiteCold,
    ServeMixed,
};

std::optional<Workload> parseWorkload(const std::string &name);

struct Server;

/** One Figure 9 case: a kernel at one size on one platform. */
struct Case
{
    std::string kernel;
    int32_t size = 0;
    int platform = 0; ///< index into {rtx4090, gh200, mi250}
    sim::GpuSpec spec;
    /** The unannotated IR; every compile works on a copy. */
    std::shared_ptr<const ir::Function> proto;
};

/** Everything a workload's loop consumes, made from the seed alone. */
struct Inputs
{
    /** The 92 Figure 9 cases, permuted by the seed. */
    std::vector<Case> cases;
    /** serve_mixed: the seeded conversion draws. */
    std::vector<std::shared_ptr<const service::ConversionRequest>>
        conversions;
    /** serve_mixed: the shuffled request stream, and for each entry the
     *  index of its case (kernel requests) or -1 (conversions). */
    std::vector<service::CompileRequest> stream;
    std::vector<int> streamCase;
    /** serve_mixed: the compile service, warmed by one cold batch of
     *  the stream. */
    std::shared_ptr<Server> server;
};

/** The set-up phase: build the suite, the cases' IR and, for
 *  serve_mixed, the conversion draws, the request stream and the warmed
 *  service. */
Inputs buildInputs(Workload workload, uint64_t seed);

/**
 * Pin the calling thread, and the service workers it starts, to `width`
 * of the CPUs the process may use, starting at a different one for each
 * `pass`; width 0 allows them all again. On a shared host one core can
 * run far slower than another for minutes while a neighbour loads it,
 * and the scheduler leaves a busy thread where it is, so an unpinned run
 * can spend every pass on the slow core. Rotating the passes over every
 * core lets each operation's best-of include the fast ones.
 */
void pinForPass(int pass, int width);

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The metrics an untraced run reports, besides setup_s, which llperf
 *  measures around buildInputs. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The metrics a traced run reports. */
const std::vector<MetricSpec> &perLayerMetrics();

struct RunResult
{
    std::map<std::string, double> metrics;
    /** Span table of a traced run. */
    SpanTable table;
    /** Operations timed in the loop (compiles or requests). */
    int64_t ops = 0;
    /** Distinct conversions oracle-audited after the loop. */
    int64_t audited = 0;
    int64_t failed = 0;
    /** The first few failures, for the report. */
    std::vector<std::string> problems;
    /** Hash of the conversions a serve_mixed seed drew (0 otherwise). */
    uint64_t drawDigest = 0;
};

/**
 * Run `workload` for about `seconds` of whole passes, check its outputs,
 * and compute its metrics. A traced run times half the passes without
 * spans and the same number with them, then reports per-layer metrics
 * and the tracing overhead instead of the end-to-end metrics.
 */
RunResult runWorkload(Workload workload, const Inputs &inputs,
                      double seconds, bool traced);

} // namespace llperf

#endif // LLPERF_WORKLOADS_H
