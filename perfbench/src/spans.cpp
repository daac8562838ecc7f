#include "spans.h"

#include <algorithm>
#include <vector>

#include "support/trace.h"

namespace llperf {

void
collectSpans(SpanTable &table, const char *source)
{
    std::vector<ll::trace::Event> events = ll::trace::snapshotEvents();
    ll::trace::clear();
    std::erase_if(events, [](const ll::trace::Event &e) {
        return e.cat != kSpanCat;
    });
    // Outer spans first: by start, and the longer of two equal starts.
    std::sort(events.begin(), events.end(), [](const auto &a, const auto &b) {
        return a.tsUs != b.tsUs ? a.tsUs < b.tsUs : a.durUs > b.durUs;
    });
    std::vector<double> childUs(events.size(), 0.0);
    std::vector<size_t> open;
    for (size_t i = 0; i < events.size(); ++i) {
        const ll::trace::Event &e = events[i];
        while (!open.empty() && events[open.back()].tsUs +
                                        events[open.back()].durUs <=
                                    e.tsUs)
            open.pop_back();
        if (!open.empty())
            childUs[open.back()] += e.durUs;
        open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
        SpanRow &row = table[events[i].name];
        row.source = source;
        ++row.count;
        row.inclMs += events[i].durUs / 1e3;
        row.selfMs += (events[i].durUs - childUs[i]) / 1e3;
    }
}

} // namespace llperf
