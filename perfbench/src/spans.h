/**
 * @file
 * The per-layer table of the benchmark's traced runs, built from the
 * library's own span tracer (support/trace.h).
 *
 * The benchmark opens ll::trace::Span objects of category kSpanCat
 * around its own calls into each layer, on its main thread. collect()
 * reads the trace buffer, keeps those spans, aggregates them by name into
 * count, inclusive time and self time (inclusive minus the part covered
 * by directly nested spans), and clears the buffer. Spans the library
 * records itself while tracing is on are dropped here; they count only
 * toward the tracing overhead.
 */

#ifndef LLPERF_SPANS_H
#define LLPERF_SPANS_H

#include <cstdint>
#include <map>
#include <string>

namespace llperf {

inline constexpr const char *kSpanCat = "llperf";

struct SpanRow
{
    int64_t count = 0;
    double inclMs = 0.0;
    double selfMs = 0.0;
    /** "loop" (per pass of the timed loop) or "after" (the output check
     *  and probes, once). */
    std::string source;
};

using SpanTable = std::map<std::string, SpanRow>;

/** Add the benchmark's spans recorded since the last call to `table`,
 *  tagged with `source`, and clear the trace buffer. */
void collectSpans(SpanTable &table, const char *source);

} // namespace llperf

#endif // LLPERF_SPANS_H
