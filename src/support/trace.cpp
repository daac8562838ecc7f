#include "support/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <ostream>

#include "support/json_lite.h"

namespace ll {
namespace trace {

namespace detail {

std::atomic<bool> gEnabled{false};

int64_t nowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

} // namespace detail

namespace {

// Soft cap on the buffer: a runaway loop should not OOM the process.
// Past the cap, completed spans are counted as dropped instead.
constexpr size_t kMaxEvents = size_t(1) << 20;

struct State
{
    std::mutex mu;
    std::vector<Event> events;
    int64_t dropped = 0;
    int64_t epochNs;
    std::string path;

    State() : epochNs(detail::nowNs()) {}
};

State &state()
{
    static State s;
    return s;
}

int threadTid()
{
    static std::atomic<int> next{0};
    thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void atexitFlush()
{
    if (eventCount() > 0)
        flushToConfiguredPath();
}

// Reads LL_TRACE once at startup for any binary that links the tracer.
struct EnvInit
{
    EnvInit()
    {
        const char *p = std::getenv("LL_TRACE");
        if (p != nullptr && *p != '\0') {
            setOutputPath(p);
            detail::gEnabled.store(true, std::memory_order_relaxed);
            std::atexit(atexitFlush);
        }
    }
};
EnvInit gEnvInit;

void jsonEscape(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

} // namespace

void Span::begin(const char *name, const char *cat)
{
    active_ = true;
    name_ = name;
    cat_ = cat;
    startNs_ = detail::nowNs();
}

void Span::end()
{
    const int64_t endNs = detail::nowNs();
    active_ = false;

    State &s = state();
    Event ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.tsUs = double(startNs_ - s.epochNs) / 1e3;
    ev.durUs = double(endNs - startNs_) / 1e3;
    ev.tid = threadTid();
    ev.args = std::move(args_);

    std::lock_guard<std::mutex> lock(s.mu);
    if (s.events.size() >= kMaxEvents) {
        ++s.dropped;
        return;
    }
    s.events.push_back(std::move(ev));
}

void Span::arg(const char *key, int64_t value)
{
    if (!active_)
        return;
    args_.push_back(Arg{key, std::to_string(value), false});
}

void Span::arg(const char *key, double value)
{
    if (!active_)
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    args_.push_back(Arg{key, buf, false});
}

void Span::arg(const char *key, const char *value)
{
    if (!active_)
        return;
    args_.push_back(Arg{key, value, true});
}

void Span::arg(const char *key, const std::string &value)
{
    if (!active_)
        return;
    args_.push_back(Arg{key, value, true});
}

void setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

void setOutputPath(const std::string &path)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.path = path;
}

std::string outputPath()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.path;
}

void clear()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.clear();
    s.dropped = 0;
}

int64_t eventCount()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return static_cast<int64_t>(s.events.size());
}

int64_t droppedCount()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.dropped;
}

std::vector<Event> snapshotEvents()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.events;
}

void writeChromeTrace(std::ostream &os)
{
    const std::vector<Event> events = snapshotEvents();
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &ev : events) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"";
        jsonEscape(os, ev.name);
        os << "\",\"cat\":\"";
        jsonEscape(os, ev.cat);
        os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", ev.tsUs);
        os << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof(buf), "%.3f", ev.durUs);
        os << ",\"dur\":" << buf;
        if (!ev.args.empty()) {
            os << ",\"args\":{";
            bool firstArg = true;
            for (const Arg &a : ev.args) {
                if (!firstArg)
                    os << ",";
                firstArg = false;
                os << "\"";
                jsonEscape(os, a.key);
                os << "\":";
                if (a.quoted) {
                    os << "\"";
                    jsonEscape(os, a.value);
                    os << "\"";
                } else {
                    os << a.value;
                }
            }
            os << "}";
        }
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
}

bool flushToConfiguredPath()
{
    const std::string path = outputPath();
    if (path.empty())
        return false;
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(out);
    return out.good();
}

bool flushAndClear()
{
    const bool flushed = eventCount() > 0 && flushToConfiguredPath();
    clear();
    return flushed;
}

bool readChromeTrace(std::istream &in, std::vector<Event> &out)
{
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    out.clear();
    const size_t key = text.find("\"traceEvents\"");
    if (key == std::string::npos)
        return false;
    size_t pos = text.find('[', key);
    if (pos == std::string::npos)
        return false;
    ++pos;
    auto skipSpace = [&] {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    };
    for (bool first = true;; first = false) {
        skipSpace();
        if (pos < text.size() && text[pos] == ']')
            return true;
        if (!first) {
            if (pos >= text.size() || text[pos] != ',')
                return false;
            ++pos;
            skipSpace();
        }
        if (pos >= text.size() || text[pos] != '{')
            return false;
        // One event object: its closing brace is the one that returns
        // the depth to zero outside a string.
        const size_t begin = pos;
        int depth = 0;
        bool inString = false;
        for (; pos < text.size(); ++pos) {
            const char c = text[pos];
            if (inString) {
                if (c == '\\')
                    ++pos;
                else if (c == '"')
                    inString = false;
            } else if (c == '"') {
                inString = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}' && --depth == 0) {
                break;
            }
        }
        if (pos >= text.size())
            return false;
        ++pos;
        const auto v = jsonlite::parse(text.substr(begin, pos - begin));
        if (!v)
            return false;
        const jsonlite::Value *ph = v->find("ph");
        if (ph == nullptr || !ph->isString())
            return false;
        if (ph->str != "X")
            continue;
        const jsonlite::Value *name = v->find("name");
        const jsonlite::Value *cat = v->find("cat");
        const jsonlite::Value *ts = v->find("ts");
        const jsonlite::Value *dur = v->find("dur");
        const jsonlite::Value *tid = v->find("tid");
        if (name == nullptr || !name->isString() || ts == nullptr ||
            !ts->isNumber() || dur == nullptr || !dur->isNumber() ||
            tid == nullptr || !tid->isNumber())
            return false;
        out.push_back({name->str,
                       cat != nullptr && cat->isString() ? cat->str : "",
                       ts->number, dur->number,
                       static_cast<int>(tid->number),
                       {}});
    }
}

std::vector<SpanStats> aggregateSpans(const std::vector<Event> &events)
{
    // Per thread, outer spans first: by start, then the longer of two
    // equal starts, then the later recorded (a parent completes after
    // its children).
    std::vector<size_t> order(events.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Event &x = events[a], &y = events[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.tsUs != y.tsUs)
            return x.tsUs < y.tsUs;
        if (x.durUs != y.durUs)
            return x.durUs > y.durUs;
        return a > b;
    });
    auto endUs = [&](size_t i) { return events[i].tsUs + events[i].durUs; };

    std::vector<double> childUs(events.size(), 0.0);
    std::vector<size_t> open; // the enclosing spans of the current one
    for (size_t i : order) {
        const Event &e = events[i];
        if (!open.empty() && events[open.back()].tid != e.tid)
            open.clear();
        while (!open.empty() && endUs(open.back()) <= e.tsUs)
            open.pop_back();
        if (!open.empty()) {
            const size_t parent = open.back();
            childUs[parent] += std::min(endUs(i), endUs(parent)) - e.tsUs;
        }
        open.push_back(i);
    }

    std::map<std::string, SpanStats> byName;
    for (size_t i = 0; i < events.size(); ++i) {
        SpanStats &row = byName[events[i].name];
        ++row.count;
        row.inclUs += events[i].durUs;
        // Rounding in the microsecond sums may leave a hair below 0.
        row.selfUs += std::max(0.0, events[i].durUs - childUs[i]);
    }
    std::vector<SpanStats> rows;
    rows.reserve(byName.size());
    for (auto &[name, row] : byName) {
        row.name = name;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const SpanStats &a, const SpanStats &b) {
                  return a.selfUs != b.selfUs ? a.selfUs > b.selfUs
                                              : a.name < b.name;
              });
    return rows;
}

} // namespace trace
} // namespace ll
