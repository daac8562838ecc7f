#include "support/ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "support/failpoint.h"
#include "support/metrics.h"

namespace ll {
namespace ledger {

namespace detail {

std::atomic<bool> gEnabled{false};

} // namespace detail

namespace {

void
atexitFlush()
{
    Ledger &l = Ledger::instance();
    if (l.recordCount() > 0)
        l.flushToConfiguredPath();
}

// Reads LL_LEDGER once at startup for any binary that links this file,
// mirroring the tracer's LL_TRACE contract.
struct EnvInit
{
    EnvInit()
    {
        const char *p = std::getenv("LL_LEDGER");
        if (p != nullptr && *p != '\0') {
            Ledger::instance().setOutputPath(p);
            Ledger::instance().setEnabled(true);
            std::atexit(atexitFlush);
        }
    }
};
EnvInit gEnvInit;

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** FNV-1a over the dedup key fields. */
uint64_t
dedupKey(uint64_t srcHash, uint64_t dstHash, int elemBytes,
         uint64_t specId, const std::string &startRung)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
        h ^= h >> 29;
    };
    mix(srcHash);
    mix(dstHash);
    mix(static_cast<uint64_t>(elemBytes));
    mix(specId);
    for (char c : startRung)
        mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    return h;
}

} // namespace

std::string
CalibrationRecord::toJsonl() const
{
    std::string out = "{\"src\":\"" + hex64(srcHash) + "\",\"dst\":\"" +
                      hex64(dstHash) + "\",\"spec\":\"" + hex64(specId) +
                      "\",\"elem\":" + std::to_string(elemBytes) +
                      ",\"start_rung\":";
    appendJsonString(out, startRung);
    out += ",\"rung\":";
    appendJsonString(out, rung);
    out += ",\"outcome\":";
    appendJsonString(out, outcome);
    out += ",\"reason\":";
    appendJsonString(out, reason);
    out += std::string(",\"terminal\":") + (terminal ? "true" : "false");
    out += ",\"cycles\":" + formatDouble(cycles);
    out += ",\"store_wf\":" + std::to_string(storeWavefronts);
    out += ",\"load_wf\":" + std::to_string(loadWavefronts);
    out += ",\"window_elems\":" + std::to_string(windowElems);
    out += ",\"pad_interval\":" + std::to_string(padInterval);
    out += ",\"pad_elems\":" + std::to_string(padElems);
    out += ",\"vec_bits\":" + std::to_string(vecBits);
    out += std::string(",\"demoted\":") + (demoted ? "true" : "false");
    out += std::string(",\"deadline\":") +
           (deadlineShaped ? "true" : "false");
    out += "}";
    return out;
}

Ledger &
Ledger::instance()
{
    static Ledger l;
    return l;
}

void
Ledger::setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

void
Ledger::setOutputPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
}

std::string
Ledger::outputPath() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

bool
Ledger::beginConversion(uint64_t srcHash, uint64_t dstHash, int elemBytes,
                        uint64_t specId, const std::string &startRung)
{
    if (!enabled())
        return false;
    // Same hygiene as the plan cache's insert policy: a fault-injected
    // planning run is not a calibration sample.
    if (failpoint::anyActive())
        return false;
    const uint64_t key =
        dedupKey(srcHash, dstHash, elemBytes, specId, startRung);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!seen_.insert(key).second) {
            static auto &skips =
                metrics::counter("plan.calib.dedup_skips");
            skips.inc();
            return false;
        }
        ++conversions_;
    }
    static auto &conversions =
        metrics::counter("plan.calib.conversions");
    conversions.inc();
    return true;
}

void
Ledger::append(CalibrationRecord record)
{
    static auto &records = metrics::counter("plan.calib.records");
    records.inc();
    if (record.terminal) {
        static auto &terminals =
            metrics::counter("plan.calib.terminal_records");
        terminals.inc();
    }
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
}

int64_t
Ledger::recordCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(records_.size());
}

int64_t
Ledger::conversionCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return conversions_;
}

std::vector<std::string>
Ledger::sortedLines() const
{
    std::vector<std::string> lines;
    {
        std::lock_guard<std::mutex> lock(mu_);
        lines.reserve(records_.size());
        for (const auto &r : records_)
            lines.push_back(r.toJsonl());
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
Ledger::writeJsonl(std::ostream &os) const
{
    for (const auto &line : sortedLines())
        os << line << "\n";
}

bool
Ledger::flushToConfiguredPath() const
{
    const std::string path = outputPath();
    if (path.empty())
        return false;
    std::ofstream os(path);
    if (!os.good())
        return false;
    writeJsonl(os);
    return os.good();
}

void
Ledger::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    seen_.clear();
    conversions_ = 0;
}

} // namespace ledger
} // namespace ll
