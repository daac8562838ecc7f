/**
 * @file
 * Process-global metrics registry: counters and fixed-bucket histograms
 * with Prometheus-style text and JSON exposition.
 *
 * Metric names are dotted paths ("engine.converts_planned",
 * "exec.shuffle.rounds") and form a stable contract documented in
 * DESIGN.md "Observability" — tools (llstat, the bench JSON emitter)
 * and tests key off them. The Prometheus text writer rewrites the
 * separators to underscores ("ll_engine_converts_planned"); the JSON
 * writer keeps the dotted names verbatim.
 *
 * Registry entries are created on first use and never deleted
 * (resetAll() zeroes values in place), so hot sites may cache the
 * returned reference in a function-local static:
 *
 *     static auto &c = metrics::Registry::instance()
 *                          .counter("exec.shuffle.runs");
 *     c.inc();
 *
 * Counter/Histogram updates are lock-free atomics; only name lookup
 * takes the registry mutex.
 */

#ifndef LL_SUPPORT_METRICS_H
#define LL_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ll {
namespace metrics {

class Counter
{
  public:
    void add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    void inc() { add(1); }
    int64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Buckets are defined by explicit inclusive
 * upper bounds (ascending); one implicit overflow bucket catches
 * everything above the last bound. bucketCounts() returns per-bucket
 * (non-cumulative) counts; the text writer renders the cumulative
 * Prometheus `le` form.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> upperBounds);

    void observe(double value);

    int64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const;
    const std::vector<double> &upperBounds() const { return bounds_; }
    /** Size bounds.size() + 1; the last entry is the overflow bucket. */
    std::vector<int64_t> bucketCounts() const;
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<int64_t>> buckets_;
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create. The returned reference is valid for the process
     *  lifetime — entries are never deleted. */
    Counter &counter(const std::string &name);

    /** Find-or-create; `upperBounds` is consulted only when the
     *  histogram is first created. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upperBounds);

    /** name -> value for every registered counter. */
    std::map<std::string, int64_t> counterSnapshot() const;

    /** name -> (value now - value in `before`) for every counter that
     *  moved since counterSnapshot() returned `before`. Counters are
     *  process-wide, so the delta includes every thread's increments. */
    std::map<std::string, int64_t>
    counterDelta(const std::map<std::string, int64_t> &before) const;

    /** Prometheus-style text exposition (names sanitized, ll_ prefix). */
    void writeText(std::ostream &os) const;

    /** JSON object: {"counters": {...}, "histograms": {...}}. */
    void writeJson(std::ostream &os) const;

    /** Zero every counter and histogram in place. Entry addresses are
     *  preserved, so cached references stay valid. */
    void resetAll();

  private:
    Registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Shorthand: find-or-create a counter in the global registry. */
inline Counter &counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

} // namespace metrics
} // namespace ll

#endif // LL_SUPPORT_METRICS_H
