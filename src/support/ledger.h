/**
 * @file
 * Plan-provenance ledger: one record per rung the planner evaluates.
 *
 * Every rung the conversion planner evaluates appends a
 * CalibrationRecord — (layout-pair structural hashes, GpuSpec
 * fingerprint, rung, accept/reject outcome, and for an accepted rung
 * its one cost, the enumerated wavefront totals that cost is priced
 * from, and the chosen plan parameters: window size,
 * padInterval/padElems, vectorization width, demotion / deadline
 * shaping flags) — into a process-global, thread-safe ledger. This is
 * the per-rung corpus `tools/llprof` reports over.
 *
 * Recording is runtime-gated exactly like the span tracer: set
 * `LL_LEDGER=/path/to/ledger.jsonl` and any binary in the repo records
 * and flushes that file at exit; unset, the per-conversion cost is one
 * relaxed atomic load. Drivers (llserve --ledger, ledger_test, the
 * bench harness) can also enable it programmatically.
 *
 * Determinism contract (enforced by `ledger_test`): records carry no
 * timestamps, thread ids or sequence numbers — a record is a pure
 * function of the conversion inputs — and the JSONL export is sorted,
 * so the same corpus produces byte-identical ledgers no matter how
 * planning work was threaded.
 *
 * Attribution contract: beginConversion() deduplicates on
 * (src, dst, elemBytes, spec, startRung) — the planning function's
 * exact input — so each planned conversion contributes its records
 * exactly once per run even when many CompileService workers race on
 * the same key (the singleflight leader is the only planner, and even
 * cache-disabled batch runs cannot double count). Repeat plannings of
 * a key add no information: planning is deterministic, their records
 * would be byte-identical. Demotion re-plans enter with a different
 * startRung and are recorded as their own conversion with the demoted
 * flag set.
 *
 * Fault-injection hygiene mirrors the plan cache: while any failpoint
 * is active (globally or on this thread's overlay), beginConversion()
 * refuses — a fuzzing run can never pollute a calibration corpus.
 */

#ifndef LL_SUPPORT_LEDGER_H
#define LL_SUPPORT_LEDGER_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace ll {
namespace ledger {

namespace detail {
extern std::atomic<bool> gEnabled;
} // namespace detail

/** True when records are being kept. One relaxed load — the whole cost
 *  of a disabled conversion. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/**
 * One evaluated rung of one planned conversion. `rung` and `startRung`
 * use the span-taxonomy rung names (noop, register-permute,
 * warp-shuffle, shared-memory, shared-padded, shared-scalar); exactly
 * one record per conversion is `terminal` (the accepted rung, or the
 * last rejected rung when every rung failed under injection).
 */
struct CalibrationRecord
{
    uint64_t srcHash = 0;  ///< LinearLayout::structuralHash of the source
    uint64_t dstHash = 0;  ///< ... and of the destination
    uint64_t specId = 0;   ///< sim::GpuSpec::fingerprint
    int elemBytes = 0;
    std::string startRung; ///< rung planning resumed at (demotions)
    std::string rung;      ///< rung this record describes
    std::string outcome;   ///< accept | reject
    std::string reason;    ///< rejection rendering; empty on accept
    bool terminal = false;
    /** The accepted plan's cost (ConversionPlan::estimateCycles); 0
     *  on a rejected rung. */
    double cycles = 0.0;
    int64_t storeWavefronts = 0; ///< enumerated whole-pass totals
    int64_t loadWavefronts = 0;
    /** Chosen plan parameters (0 where the rung has none). */
    int64_t windowElems = 0;
    int64_t padInterval = 0;
    int64_t padElems = 0;
    int vecBits = 0;
    bool demoted = false;        ///< planning resumed below the top rung
    bool deadlineShaped = false; ///< deadline expiry shaped this plan

    /** One JSONL line (no trailing newline); deterministic field
     *  order, hashes rendered as fixed-width hex. */
    std::string toJsonl() const;
};

/**
 * The process-global ledger. Thread-safe: append and dedup share one
 * mutex; conversions are coarse enough (one lock per evaluated rung)
 * that this never shows up next to the planning work itself.
 */
class Ledger
{
  public:
    static Ledger &instance();

    void setEnabled(bool on);

    /** Where flushToConfiguredPath / the atexit hook write the JSONL. */
    void setOutputPath(const std::string &path);
    std::string outputPath() const;

    /**
     * Claim recording rights for one planning run. Returns true exactly
     * once per (src, dst, elemBytes, spec, startRung) per process run
     * (until clear()); false when recording is disabled, the key was
     * already recorded, or any failpoint is active (see file comment).
     */
    bool beginConversion(uint64_t srcHash, uint64_t dstHash,
                         int elemBytes, uint64_t specId,
                         const std::string &startRung);

    void append(CalibrationRecord record);

    int64_t recordCount() const;
    /** Conversions that claimed recording rights (terminal records). */
    int64_t conversionCount() const;

    /** Every record rendered to JSONL, sorted (the export order). */
    std::vector<std::string> sortedLines() const;

    /** Write the sorted JSONL document (one record per line). */
    void writeJsonl(std::ostream &os) const;

    /** Write to outputPath(); false when unset or unopenable. */
    bool flushToConfiguredPath() const;

    /** Drop every record and the dedup set (tests, per-bench carving). */
    void clear();

  private:
    Ledger() = default;

    mutable std::mutex mu_;
    std::vector<CalibrationRecord> records_;
    std::unordered_set<uint64_t> seen_;
    int64_t conversions_ = 0;
    std::string path_;
};

} // namespace ledger
} // namespace ll

#endif // LL_SUPPORT_LEDGER_H
