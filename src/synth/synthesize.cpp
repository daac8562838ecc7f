#include "synth/synthesize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "codegen/conversion.h"
#include "support/trace.h"

namespace ll {
namespace synth {

namespace {

using ir::OpKind;

/** An entry of a term's price table: NaN until the search first asks
 *  for it. */
template <typename Price>
double
priced(double &entry, Price &&price)
{
    if (std::isnan(entry))
        entry = price();
    return entry;
}

/** A load or store whose traffic depends on anchor `anchorIdx`'s
 *  candidate (the carried layout prices the access); priced per
 *  candidate. */
struct MemRef
{
    int anchorIdx;
    int elemBits;
    std::vector<double> price;
};

/** A conversion edge between an anchor-carried value and a fixed
 *  layout (MMA operand target, dot-result sibling, ...); priced per
 *  candidate of the anchor. */
struct FixedEdge
{
    int anchorIdx;
    LinearLayout other;
    bool anchorIsSrc;
    int elemBytes;
    std::vector<double> price;
};

/** A conversion edge between two anchor-carried values: the `from`
 *  anchor's candidate is converted into the `to` anchor's. Priced per
 *  candidate pair, at [ci * n_to + cj]. */
struct PairEdge
{
    int fromIdx;
    int toIdx;
    int elemBytes;
    std::vector<double> price;
};

struct CostTerms
{
    std::vector<MemRef> memRefs;
    std::vector<FixedEdge> fixedEdges;
    std::vector<PairEdge> pairEdges;
};

/**
 * Price one conversion from its plan alone: a pair that proves to be a
 * no-op costs zero, a planned one its estimateCycles, and an
 * unplannable one a scalar shared round trip, exactly like
 * engine::estimateKernelCost prices convert:unplanned ops. Nothing is
 * smoke-executed or cached: engine.run verifies what the adopted
 * assignment ships.
 */
double
conversionCycles(const LinearLayout &src, const LinearLayout &dst,
                 int elemBytes, const sim::GpuSpec &spec)
{
    const double unplannable = unplannableConversionCycles(src, spec);
    try {
        LinearLayout d = dst.transposeOuts(src.getOutDimNames());
        if (codegen::conversionIsNoOp(src, d))
            return 0.0;
        auto plan = codegen::tryPlanConversion(src, d, elemBytes, spec);
        if (plan.ok())
            return plan->estimateCycles(src, elemBytes, spec);
    } catch (const std::exception &) {
        // Incomparable layout spaces price like an unplannable
        // conversion below.
    }
    return unplannable;
}

CostTerms
collectCostTerms(const ir::Function &f, const PropagationMap &prop,
                 const std::vector<int> &anchorIdx,
                 const std::vector<std::vector<LayoutCandidate>> &cands,
                 const sim::GpuSpec &spec, int numWarps)
{
    CostTerms terms;
    // A price table of `choices` entries, none priced yet.
    auto unpriced = [](size_t choices) {
        return std::vector<double>(
            choices, std::numeric_limits<double>::quiet_NaN());
    };
    auto choices = [&](int idx) {
        return cands[static_cast<size_t>(idx)].size();
    };
    auto idxOf = [&](int valueId) -> int {
        const int a = prop.carrier[static_cast<size_t>(valueId)];
        return a < 0 ? -1 : anchorIdx[static_cast<size_t>(a)];
    };
    auto sameShape = [&](int a, int b) {
        return f.value(a).type.shape == f.value(b).type.shape;
    };
    for (int i = 0; i < f.numOps(); ++i) {
        const ir::Op &o = f.op(i);
        if (o.erased)
            continue;
        switch (o.kind) {
          case OpKind::Load:
          case OpKind::Store: {
            const int v = o.kind == OpKind::Load ? o.results[0]
                                                 : o.operands[0];
            const int idx = idxOf(v);
            if (idx >= 0)
                terms.memRefs.push_back(
                    {idx, bitWidth(f.value(v).type.dtype),
                     unpriced(choices(idx))});
            break;
          }
          case OpKind::Dot: {
            const auto &ta = f.value(o.operands[0]).type;
            const auto &tb = f.value(o.operands[1]).type;
            const auto &tacc = f.value(o.results[0]).type;
            const int bits =
                std::max(bitWidth(ta.dtype), bitWidth(tb.dtype));
            if (bits > 32)
                break; // FMA dots keep blocked operands: no MMA edge
            for (int s = 0; s < 2; ++s) {
                const int v = o.operands[s];
                const int idx = idxOf(v);
                if (idx < 0)
                    continue;
                try {
                    terms.fixedEdges.push_back(
                        {idx,
                         dotOperandLayout(f.value(v).type, tacc, s,
                                          bits, spec, numWarps),
                         /*anchorIsSrc=*/true,
                         byteWidth(f.value(v).type.dtype),
                         unpriced(choices(idx))});
                } catch (const std::exception &) {
                    // No MMA operand layout for this shape: the edge
                    // is the same for every candidate, drop it.
                }
            }
            break;
          }
          case OpKind::Elementwise:
          case OpKind::Join:
          case OpKind::Gather: {
            const int lead = o.operands[0];
            const int leadIdx = idxOf(lead);
            const auto &leadFixed =
                prop.fixed[static_cast<size_t>(lead)];
            for (size_t s = 1; s < o.operands.size(); ++s) {
                const int v = o.operands[s];
                if (!sameShape(v, lead))
                    continue; // broadcast-compatible slots stay no-ops
                const int vIdx = idxOf(v);
                const auto &vFixed =
                    prop.fixed[static_cast<size_t>(v)];
                const int bytes = byteWidth(f.value(v).type.dtype);
                if (vIdx >= 0 && leadIdx >= 0 && vIdx != leadIdx)
                    terms.pairEdges.push_back(
                        {vIdx, leadIdx, bytes,
                         unpriced(choices(vIdx) * choices(leadIdx))});
                else if (vIdx >= 0 && leadIdx < 0 &&
                         leadFixed.has_value())
                    terms.fixedEdges.push_back(
                        {vIdx, *leadFixed, /*anchorIsSrc=*/true, bytes,
                         unpriced(choices(vIdx))});
                else if (vIdx < 0 && leadIdx >= 0 &&
                         vFixed.has_value())
                    terms.fixedEdges.push_back(
                        {leadIdx, *vFixed, /*anchorIsSrc=*/false, bytes,
                         unpriced(choices(leadIdx))});
            }
            break;
          }
          default:
            break;
        }
    }
    return terms;
}

/** True for the all-defaults (prefix of an) assignment. */
bool
isAllDefaults(const SynthAssignment &s)
{
    return std::all_of(s.choice.begin(), s.choice.end(),
                       [](int c) { return c == 0; });
}

/**
 * Cut the sorted `states` to the best `keep` (at least one), then
 * re-append the all-defaults state if it fell out: the never-worse
 * invariant keeps it in the beam at every level and among the
 * finalists.
 */
void
keepBest(std::vector<SynthAssignment> &states, int keep)
{
    const size_t k = static_cast<size_t>(std::max(1, keep));
    if (states.size() <= k)
        return;
    const auto cut = states.begin() + static_cast<std::ptrdiff_t>(k);
    auto def = std::find_if(states.begin(), states.end(), isAllDefaults);
    const bool fellOut = def >= cut && def != states.end();
    if (fellOut)
        std::iter_swap(cut, def);
    states.resize(fellOut ? k + 1 : k);
}

} // namespace

SynthResult
synthesizeAnchors(const ir::Function &f, const sim::GpuSpec &spec,
                  int numWarps, const SynthOptions &opt)
{
    trace::Span span("synth.search", "synth");
    SynthResult result;
    result.anchors = anchorValues(f);
    const int n = static_cast<int>(result.anchors.size());
    if (n == 0)
        return result;

    PropagationMap prop = propagationMap(f, spec, numWarps);
    std::vector<int> anchorIdx(static_cast<size_t>(f.numValues()), -1);
    for (int i = 0; i < n; ++i)
        anchorIdx[static_cast<size_t>(result.anchors[i])] = i;

    result.candidates.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        result.candidates.push_back(
            anchorCandidates(f, result.anchors[i], prop, spec, numWarps,
                             opt.maxPerAnchor));

    CostTerms terms = collectCostTerms(f, prop, anchorIdx,
                                       result.candidates, spec, numWarps);

    // Guide cost of a partial assignment: terms whose every anchor is
    // already decided. Monotone in the prefix length, so beam pruning
    // on it is meaningful.
    auto partialCost = [&](const std::vector<int> &choice) {
        const int assigned = static_cast<int>(choice.size());
        auto choiceOf = [&](int idx) {
            return static_cast<size_t>(choice[static_cast<size_t>(idx)]);
        };
        auto layoutOf = [&](int idx) -> const LinearLayout & {
            return result.candidates[static_cast<size_t>(idx)][choiceOf(idx)]
                .layout;
        };
        double cost = 0.0;
        for (MemRef &m : terms.memRefs) {
            if (m.anchorIdx >= assigned)
                continue;
            cost += priced(m.price[choiceOf(m.anchorIdx)], [&] {
                return static_cast<double>(globalMemorySectors(
                           layoutOf(m.anchorIdx), m.elemBits, spec)) *
                       spec.globalSectorCycles;
            });
        }
        for (FixedEdge &e : terms.fixedEdges) {
            if (e.anchorIdx >= assigned)
                continue;
            cost += priced(e.price[choiceOf(e.anchorIdx)], [&] {
                const LinearLayout &l = layoutOf(e.anchorIdx);
                return e.anchorIsSrc
                           ? conversionCycles(l, e.other, e.elemBytes,
                                              spec)
                           : conversionCycles(e.other, l, e.elemBytes,
                                              spec);
            });
        }
        for (PairEdge &e : terms.pairEdges) {
            if (e.fromIdx >= assigned || e.toIdx >= assigned)
                continue;
            const size_t nTo =
                result.candidates[static_cast<size_t>(e.toIdx)].size();
            cost += priced(
                e.price[choiceOf(e.fromIdx) * nTo + choiceOf(e.toIdx)],
                [&] {
                    return conversionCycles(layoutOf(e.fromIdx),
                                            layoutOf(e.toIdx),
                                            e.elemBytes, spec);
                });
        }
        return cost;
    };

    // Deterministic ordering: cost first, then the lexicographically
    // smallest choice vector (which also ranks the all-defaults
    // assignment first among equals).
    auto better = [](const SynthAssignment &a, const SynthAssignment &b) {
        if (a.cost != b.cost)
            return a.cost < b.cost;
        return a.choice < b.choice;
    };

    double crossProduct = 1.0;
    for (const auto &cands : result.candidates)
        crossProduct *= static_cast<double>(cands.size());
    result.exhaustive =
        crossProduct <= static_cast<double>(std::max(1, opt.exhaustiveLimit));

    std::vector<SynthAssignment> frontier;
    frontier.push_back({std::vector<int>{}, 0.0});
    for (int level = 0; level < n; ++level) {
        std::vector<SynthAssignment> next;
        const int numCands = static_cast<int>(
            result.candidates[static_cast<size_t>(level)].size());
        for (const SynthAssignment &state : frontier) {
            for (int c = 0; c < numCands; ++c) {
                SynthAssignment ext;
                ext.choice = state.choice;
                ext.choice.push_back(c);
                ext.cost = partialCost(ext.choice);
                ++result.statesExpanded;
                next.push_back(std::move(ext));
            }
        }
        std::sort(next.begin(), next.end(), better);
        if (!result.exhaustive)
            keepBest(next, opt.beamWidth);
        frontier = std::move(next);
    }
    keepBest(frontier, opt.maxRankedAssignments);
    result.ranked = std::move(frontier);

    for (size_t i = 0; i < result.ranked.size(); ++i)
        if (isAllDefaults(result.ranked[i]))
            result.defaultRank = static_cast<int>(i);
    llAssert(result.defaultRank >= 0,
             "the default assignment must survive the beam");

    if (span.active()) {
        span.arg("anchors", n);
        span.arg("states_expanded", result.statesExpanded);
        span.arg("exhaustive", result.exhaustive ? 1 : 0);
        span.arg("ranked", static_cast<int>(result.ranked.size()));
    }
    return result;
}

} // namespace synth
} // namespace ll
