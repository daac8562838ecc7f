#include "support/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "support/diagnostics.h"

namespace ll {
namespace metrics {

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:]; our dotted/hyphenated
 *  internal names map '.' and '-' (and anything else) to '_'. */
std::string sanitizeName(const std::string &name)
{
    std::string out = "ll_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)), buckets_(bounds_.size() + 1)
{
    llAssert(std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram bucket bounds must be ascending");
}

void Histogram::observe(double value)
{
    size_t idx = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                 bounds_.begin();
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed))
        ;
}

double Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucketCounts() const
{
    std::vector<int64_t> out(buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

Registry &Registry::instance()
{
    static Registry r;
    return r;
}

Counter &Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    return *it->second;
}

Histogram &Registry::histogram(const std::string &name,
                               std::vector<double> upperBounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_
                 .emplace(name,
                          std::make_unique<Histogram>(std::move(upperBounds)))
                 .first;
    return *it->second;
}

std::map<std::string, int64_t> Registry::counterSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, int64_t> out;
    for (const auto &[name, c] : counters_)
        out[name] = c->value();
    return out;
}

std::map<std::string, int64_t>
Registry::counterDelta(const std::map<std::string, int64_t> &before) const
{
    std::map<std::string, int64_t> delta;
    for (const auto &[name, value] : counterSnapshot()) {
        auto it = before.find(name);
        const int64_t d = value - (it == before.end() ? 0 : it->second);
        if (d != 0)
            delta[name] = d;
    }
    return delta;
}

void Registry::writeText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, c] : counters_) {
        const std::string n = sanitizeName(name);
        os << "# TYPE " << n << " counter\n";
        os << n << " " << c->value() << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        const std::string n = sanitizeName(name);
        os << "# TYPE " << n << " histogram\n";
        const auto bounds = h->upperBounds();
        const auto counts = h->bucketCounts();
        int64_t cumulative = 0;
        for (size_t i = 0; i < bounds.size(); ++i) {
            cumulative += counts[i];
            os << n << "_bucket{le=\"" << formatDouble(bounds[i]) << "\"} "
               << cumulative << "\n";
        }
        cumulative += counts.back();
        os << n << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
        os << n << "_sum " << formatDouble(h->sum()) << "\n";
        os << n << "_count " << h->count() << "\n";
    }
}

void Registry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << name << "\":" << c->value();
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << name << "\":{\"count\":" << h->count()
           << ",\"sum\":" << formatDouble(h->sum()) << ",\"buckets\":[";
        const auto bounds = h->upperBounds();
        const auto counts = h->bucketCounts();
        for (size_t i = 0; i < counts.size(); ++i) {
            if (i > 0)
                os << ",";
            os << "{\"le\":";
            if (i < bounds.size())
                os << formatDouble(bounds[i]);
            else
                os << "\"+Inf\"";
            os << ",\"count\":" << counts[i] << "}";
        }
        os << "]}";
    }
    os << "}}";
}

void Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace metrics
} // namespace ll
