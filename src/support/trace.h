/**
 * @file
 * RAII span tracer with Chrome trace-event JSON export.
 *
 * Spans record wall-clock intervals (steady clock) with a name, a
 * category, and optional key/value args, and nest naturally because
 * they are scoped objects. Tracing is runtime-gated: setting the
 * LL_TRACE environment variable to a file path enables recording and
 * registers an atexit flush to that path; when unset, constructing a
 * Span costs exactly one relaxed atomic load and one branch, touches
 * no other state, and performs no allocation (tests assert this).
 *
 * The recorded buffer is process-global behind a mutex; each thread
 * gets a dense tid from an atomic counter the first time it completes
 * a span. Export is the Chrome trace-event "complete event" ("ph":"X")
 * format, loadable in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing. See DESIGN.md "Observability" for the span
 * taxonomy the pipeline emits.
 */

#ifndef LL_SUPPORT_TRACE_H
#define LL_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ll {
namespace trace {

namespace detail {
extern std::atomic<bool> gEnabled;
int64_t nowNs();
} // namespace detail

/** True when spans are being recorded. One relaxed load — this is the
 *  whole cost of a disabled Span construction. */
inline bool enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** One key/value pair attached to a span. The value is pre-rendered;
 *  `quoted` distinguishes JSON strings from bare numbers. */
struct Arg
{
    const char *key;
    std::string value;
    bool quoted;
};

/** A completed span in the event buffer (snapshot/test surface). */
struct Event
{
    std::string name;
    std::string cat;
    double tsUs;  ///< start, microseconds since the trace epoch
    double durUs; ///< duration in microseconds
    int tid;      ///< dense per-thread id (not the OS tid)
    std::vector<Arg> args;
};

/**
 * An RAII span. Construct at the top of the scope you want timed;
 * destruction records the completed event. `name` and `cat` must be
 * string literals (or otherwise outlive the span).
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat = "ll")
    {
        if (!enabled())
            return;
        begin(name, cat);
    }
    ~Span()
    {
        if (active_)
            end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an arg. No-ops (and does not allocate for numeric /
     *  C-string values) when the span is inactive. */
    void arg(const char *key, int64_t value);
    void arg(const char *key, int value)
    {
        arg(key, static_cast<int64_t>(value));
    }
    void arg(const char *key, double value);
    void arg(const char *key, const char *value);
    void arg(const char *key, const std::string &value);

    bool active() const { return active_; }

    /** Record the span now instead of at scope exit. */
    void finish()
    {
        if (active_)
            end();
    }

  private:
    void begin(const char *name, const char *cat);
    void end();

    bool active_ = false;
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
    int64_t startNs_ = 0;
    std::vector<Arg> args_;
};

/// Control / snapshot surface (used by llstat and the tests) ----------

/** Enable or disable recording. LL_TRACE in the environment enables it
 *  at startup; tests flip it directly. */
void setEnabled(bool on);

/** Where flushToConfiguredPath / the atexit hook write the trace. */
void setOutputPath(const std::string &path);
std::string outputPath();

/** Drop all recorded events and the dropped-event counter. */
void clear();

int64_t eventCount();

/** Events discarded because the buffer hit its soft cap. */
int64_t droppedCount();

std::vector<Event> snapshotEvents();

/** Write the whole buffer as Chrome trace-event JSON. */
void writeChromeTrace(std::ostream &os);

/** Write the buffer to outputPath(), if one is set. Returns false when
 *  no path is configured or the file cannot be opened. */
bool flushToConfiguredPath();

/**
 * Read back a Chrome trace-event file as writeChromeTrace writes it (an
 * LL_TRACE or `llstat --trace` file): the name, category, thread and
 * times of every complete ("ph":"X") event, in file order; other
 * phases are skipped and args are not read. Events are parsed one at a
 * time, so a file at the buffer's soft cap reads in bounded memory.
 * Returns false, leaving `out` unspecified, on a malformed file.
 */
bool readChromeTrace(std::istream &in, std::vector<Event> &out);

/** Count, inclusive and self time of every span of one name. */
struct SpanStats
{
    std::string name;
    int64_t count = 0;
    double inclUs = 0.0; ///< summed durations
    double selfUs = 0.0; ///< inclusive minus the time in direct children
};

/**
 * Aggregate events by span name. Spans nest per thread (tid): a span's
 * direct children are the spans of its own thread that start inside it
 * and are not inside one of its other children, and its self time is
 * its duration minus the part of it they cover. A span running at the
 * same time on another thread is never a child, so no self time is
 * negative and a row's self time never exceeds its inclusive time.
 * Rows come largest self time first, then by name.
 */
std::vector<SpanStats> aggregateSpans(const std::vector<Event> &events);

/**
 * Flush-and-clear for long-running multi-engine processes that want
 * per-run traces: write whatever the buffer holds to outputPath() (a
 * no-op when no path is configured or the buffer is empty), then drop
 * every recorded event *and* the dropped-event counter, so the next
 * run starts from an empty recorder with its full soft cap available.
 * Exposed on the CLI as `llstat --trace-reset`. Returns true when a
 * non-empty buffer was successfully written before clearing.
 */
bool flushAndClear();

} // namespace trace
} // namespace ll

#endif // LL_SUPPORT_TRACE_H
