#include "codegen/conversion.h"

#include <algorithm>

#include "codegen/shared_exec.h"
#include "triton/encodings.h"
#include "layout/dims.h"
#include "sim/memory_sim.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

namespace {

/** "dimN" -> N; empty for any other spelling. */
std::optional<int>
parseDimIndex(const std::string &name)
{
    if (name.size() <= 3 || name.compare(0, 3, "dim") != 0)
        return std::nullopt;
    int idx = 0;
    for (size_t i = 3; i < name.size(); ++i) {
        char c = name[i];
        if (c < '0' || c > '9')
            return std::nullopt;
        idx = idx * 10 + (c - '0');
        if (idx > 8)
            return std::nullopt;
    }
    return idx;
}

/**
 * Reject inputs no rung could make sense of. Planning is total over
 * everything that passes here; nothing that passes may throw further
 * down, only step the ladder.
 */
std::optional<Diagnostic>
validateInputs(const LinearLayout &src, const LinearLayout &dst,
               int elemBytes)
{
    auto invalid = [](const std::string &why) {
        return makeDiag(DiagCode::InvalidInput, "plan", why);
    };
    if (elemBytes != 1 && elemBytes != 2 && elemBytes != 4 &&
        elemBytes != 8)
        return invalid("element size must be 1, 2, 4, or 8 bytes, got " +
                       std::to_string(elemBytes));
    for (const LinearLayout *l : {&src, &dst}) {
        for (const auto &in : l->getInDimNames()) {
            if (in != dims::kReg && in != dims::kLane && in != dims::kWarp)
                return invalid(
                    "layouts must be distributed over "
                    "register/lane/warp; found in-dim \"" +
                    in + "\"");
        }
    }
    auto srcOuts = src.getOutDims();
    auto dstOuts = dst.getOutDims();
    auto bySize = [](const auto &x, const auto &y) {
        return x.first < y.first;
    };
    std::sort(srcOuts.begin(), srcOuts.end(), bySize);
    std::sort(dstOuts.begin(), dstOuts.end(), bySize);
    if (srcOuts.size() != dstOuts.size())
        return invalid("source and destination cover different output "
                       "spaces: rank " +
                       std::to_string(srcOuts.size()) + " vs " +
                       std::to_string(dstOuts.size()));
    for (size_t i = 0; i < srcOuts.size(); ++i) {
        if (srcOuts[i].first != dstOuts[i].first)
            return invalid("source and destination cover different "
                           "output spaces: \"" +
                           srcOuts[i].first + "\" vs \"" +
                           dstOuts[i].first + "\"");
        if (srcOuts[i].second != dstOuts[i].second)
            return invalid("output dim \"" + srcOuts[i].first +
                           "\" has size " +
                           std::to_string(srcOuts[i].second) +
                           " in the source but " +
                           std::to_string(dstOuts[i].second) +
                           " in the destination");
    }
    return std::nullopt;
}

/**
 * Price a shared candidate and fill the shared fields of a trial plan.
 * Returns a CtaBudgetExceeded Diagnostic when the candidate's actual
 * allocation (one window for windowed candidates, the whole padded
 * tensor otherwise) does not fit the CTA shared budget, so the ladder
 * steps down instead of shipping a plan that cannot run. Throws only
 * on internal invariant violations, which the caller turns into a
 * PlannerInternalError note.
 */
Result<ConversionPlan>
evaluateSharedCandidate(const ConversionPlan &base, SwizzledShared cand,
                        const LinearLayout &src, const LinearLayout &dst,
                        int elemBytes, const sim::GpuSpec &spec,
                        bool allowLdmatrix, bool allowStmatrix)
{
    trace::Span span("plan.shared.candidate", "plan");
    static auto &examined = metrics::counter("plan.shared.candidates");
    examined.inc();
    const int64_t numElems = src.getTotalOutDimSize();
    const int64_t alloc = cand.allocElems(numElems);
    if (span.active()) {
        span.arg("alloc_bytes", alloc * elemBytes);
        span.arg("padded", static_cast<int64_t>(cand.padded()));
        span.arg("windowed", static_cast<int64_t>(cand.windowed()));
    }
    if (!sim::SharedMemory::fits(spec, elemBytes, alloc)) {
        static auto &rejected =
            metrics::counter("plan.shared.cta_rejected");
        rejected.inc();
        span.arg("outcome", "cta-budget-exceeded");
        return makeDiag(
            DiagCode::CtaBudgetExceeded, "plan.cta-budget",
            "candidate allocates " + std::to_string(alloc * elemBytes) +
                " bytes of shared memory but the CTA budget is " +
                std::to_string(spec.sharedMemPerCta));
    }
    ConversionPlan trial = base;
    // Each side composed once: src's columns are the store addresses,
    // dst's the load addresses, and the tile tests and wavefront totals
    // all read them.
    const OffsetColumns stores(cand, src);
    const OffsetColumns loads(cand, dst);
    // The failpoint is evaluated (and a limited activation spent) only
    // for element widths the tile exists for.
    auto tileFits = [&](const OffsetColumns &side) {
        return elemBytes <= 4 && !LL_FAILPOINT("tiles.divide") &&
               matchesMatrixTile(side, elemBytes);
    };
    trial.usesStmatrix = allowStmatrix && spec.hasStmatrix &&
                         !cand.padded() && tileFits(stores);
    trial.usesLdmatrix = allowLdmatrix && spec.hasLdmatrix &&
                         !cand.padded() && tileFits(loads);
    trial.storeWavefrontsTotal =
        enumerateWavefronts(cand, stores, elemBytes, spec);
    trial.loadWavefrontsTotal =
        enumerateWavefronts(cand, loads, elemBytes, spec);
    static auto &storeWf =
        metrics::counter("plan.shared.store_wavefronts");
    static auto &loadWf = metrics::counter("plan.shared.load_wavefronts");
    storeWf.add(trial.storeWavefrontsTotal);
    loadWf.add(trial.loadWavefrontsTotal);
    if (span.active()) {
        span.arg("outcome", "priced");
        span.arg("store_wavefronts", trial.storeWavefrontsTotal);
        span.arg("load_wavefronts", trial.loadWavefrontsTotal);
    }
    trial.shared = std::move(cand);
    return trial;
}

} // namespace

std::string
toString(ConversionKind kind)
{
    switch (kind) {
      case ConversionKind::NoOp:
        return "no-op";
      case ConversionKind::RegisterPermute:
        return "register-permute";
      case ConversionKind::WarpShuffle:
        return "warp-shuffle";
      case ConversionKind::SharedMemory:
        return "shared-memory";
      case ConversionKind::SharedPadded:
        return "shared-padded";
      case ConversionKind::SharedScalar:
        return "shared-scalar";
    }
    return "unknown";
}

std::optional<ConversionKind>
parseConversionKind(const std::string &s)
{
    for (ConversionKind k :
         {ConversionKind::NoOp, ConversionKind::RegisterPermute,
          ConversionKind::WarpShuffle, ConversionKind::SharedMemory,
          ConversionKind::SharedPadded, ConversionKind::SharedScalar}) {
        if (toString(k) == s)
            return k;
    }
    return std::nullopt;
}

std::string
describePlan(const ConversionPlan &plan)
{
    std::string out = "kind=" + toString(plan.kind);
    if (plan.shuffle) {
        const WarpShufflePlan &s = *plan.shuffle;
        out += " shuffle{vec=" + std::to_string(s.vecElems) +
               " rounds=" + std::to_string(s.rounds) +
               " regsA=" + std::to_string(s.numRegsA) +
               " regsB=" + std::to_string(s.numRegsB) +
               " warp=" + std::to_string(s.warpSize);
        // FNV-1a over every transfer: cheap to render, and any change
        // to any round's schedule changes the digest.
        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        for (int round = 0; round < s.rounds; ++round) {
            mix(static_cast<uint64_t>(s.warpSize));
            for (int lane = 0; lane < s.warpSize; ++lane) {
                mix(static_cast<uint64_t>(s.transfer(round, lane, 0).srcLane));
                mix(static_cast<uint64_t>(s.vecElems));
                for (int slot = 0; slot < s.vecElems; ++slot) {
                    const ShuffleTransfer t = s.transfer(round, lane, slot);
                    mix(static_cast<uint64_t>(t.srcReg));
                    mix(static_cast<uint64_t>(t.dstReg));
                }
            }
        }
        out += " xfers#" + std::to_string(h) + "}";
    }
    if (plan.shared) {
        const SwizzledShared &m = *plan.shared;
        out += " shared{vecBits=" + std::to_string(m.vecBits) +
               " bankBits=" + std::to_string(m.bankBits) +
               " idxBits=" + std::to_string(m.idxBits) +
               " padInterval=" + std::to_string(m.padInterval) +
               " padElems=" + std::to_string(m.padElems) +
               " windowElems=" + std::to_string(m.windowElems) +
               " mem=" + m.memLayout.toString() +
               " tensorToOffset=" + m.tensorToOffset.toString() + "}";
    }
    out += std::string(" ldmatrix=") + (plan.usesLdmatrix ? "1" : "0") +
           " stmatrix=" + (plan.usesStmatrix ? "1" : "0") +
           " wavefronts{store=" +
           std::to_string(plan.storeWavefrontsTotal) +
           " load=" + std::to_string(plan.loadWavefrontsTotal) + "}";
    if (!plan.diagnostics.empty())
        out += " notes=[" + plan.diagnostics.toString() + "]";
    return out;
}

std::vector<std::string>
plannerFailpointSites()
{
    // Ladder order. "plan.scalar" is deliberately absent: with the rest
    // of these active it is the last rung standing, and disabling it
    // too makes planning fail outright (an engine-survival test, not a
    // fallback one).
    return {
        "plan.noop",           "plan.register-permute",
        "plan.warp-shuffle",   "shuffle.pair-basis",
        "plan.optimal-swizzle", "swizzle.word-basis",
        "swizzle.segment-basis", "swizzle.bank-basis",
        "plan.legacy-swizzle", "tiles.divide",
        "plan.ldmatrix",       "plan.stmatrix",
        "plan.padded",
    };
}

std::vector<std::string>
demotionSitesFor(ConversionKind kind)
{
    // Cumulative knockout sets: disabling every rung at or above `kind`
    // forces planning strictly below it.
    switch (kind) {
      case ConversionKind::NoOp:
        return {"plan.noop"};
      case ConversionKind::RegisterPermute:
        return {"plan.noop", "plan.register-permute"};
      case ConversionKind::WarpShuffle:
        return {"plan.noop", "plan.register-permute",
                "plan.warp-shuffle"};
      case ConversionKind::SharedMemory:
        return {"plan.noop", "plan.register-permute",
                "plan.warp-shuffle", "plan.optimal-swizzle",
                "plan.legacy-swizzle"};
      case ConversionKind::SharedPadded:
        return {"plan.noop", "plan.register-permute",
                "plan.warp-shuffle", "plan.optimal-swizzle",
                "plan.legacy-swizzle", "plan.padded"};
      case ConversionKind::SharedScalar:
        return {}; // terminal: nothing below it
    }
    return {};
}

std::optional<ExecDiagnostic>
smokeExecutePlan(const ConversionPlan &plan, const LinearLayout &src,
                 const LinearLayout &dst, int elemBytes,
                 const sim::GpuSpec &spec)
{
    switch (plan.kind) {
      case ConversionKind::NoOp:
      case ConversionKind::RegisterPermute:
        return std::nullopt;
      case ConversionKind::WarpShuffle: {
        if (!plan.shuffle.has_value()) {
            return makeExecDiag(ExecError::PlanShapeMismatch,
                                "exec.shuffle",
                                "warp-shuffle plan carries no schedule");
        }
        const WarpShufflePlan &p = *plan.shuffle;
        if (p.warpSize <= 0 || p.numRegsA < 0) {
            return makeExecDiag(ExecError::PlanShapeMismatch,
                                "exec.shuffle",
                                "warp-shuffle plan has degenerate shape");
        }
        // The schedule is warp-invariant, so one warp of tagged
        // registers exercises every exchange exactly once.
        std::vector<std::vector<uint64_t>> regs(
            static_cast<size_t>(p.warpSize),
            std::vector<uint64_t>(static_cast<size_t>(p.numRegsA)));
        for (int lane = 0; lane < p.warpSize; ++lane) {
            for (int reg = 0; reg < p.numRegsA; ++reg) {
                regs[static_cast<size_t>(lane)][static_cast<size_t>(
                    reg)] =
                    static_cast<uint64_t>(lane) *
                        static_cast<uint64_t>(p.numRegsA) +
                    static_cast<uint64_t>(reg);
            }
        }
        auto out = p.execute(regs);
        if (!out)
            return out.diag();
        return std::nullopt;
      }
      case ConversionKind::SharedMemory:
      case ConversionKind::SharedPadded:
      case ConversionKind::SharedScalar: {
        if (!plan.shared.has_value()) {
            return makeExecDiag(ExecError::PlanShapeMismatch,
                                "exec.shared",
                                "shared plan carries no layout");
        }
        auto rt = executeSharedConversion(*plan.shared, src, dst,
                                          elemBytes, spec);
        if (!rt)
            return rt.diag();
        // The plan was priced by enumerateWavefronts totals; the
        // simulator must measure the same, or the price is wrong.
        const int64_t store = rt->storeStats.wavefronts;
        const int64_t load = rt->loadStats.wavefronts;
        if (store != plan.storeWavefrontsTotal ||
            load != plan.loadWavefrontsTotal) {
            return makeExecDiag(
                ExecError::CostMismatch, "exec.shared.cost",
                "measured store/load wavefronts " + std::to_string(store) +
                    "/" + std::to_string(load) + ", priced " +
                    std::to_string(plan.storeWavefrontsTotal) + "/" +
                    std::to_string(plan.loadWavefrontsTotal));
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
}

static Result<ConversionPlan>
tryPlanConversionImpl(const LinearLayout &src, const LinearLayout &dst,
                      int elemBytes, const sim::GpuSpec &spec)
{
    if (auto bad = validateInputs(src, dst, elemBytes))
        return *bad;

    ConversionPlan plan;
    PlanDiagnostics &notes = plan.diagnostics;
    auto skipped = [&](const char *site) {
        if (LL_FAILPOINT(site)) {
            notes.note(DiagCode::FailpointInjected, site,
                       "failpoint disabled this rung");
            return true;
        }
        return false;
    };

    // plan.kind.<kind> counts every accepted rung, so it pairs with the
    // plan.rung.<rung>.evaluated counters as the ladder's accept count.
    auto countKind = [](ConversionKind kind) {
        // Indexed by kind, in ConversionKind's order.
        static metrics::Counter *const kindCounters[] = {
            &metrics::counter("plan.kind.no-op"),
            &metrics::counter("plan.kind.register-permute"),
            &metrics::counter("plan.kind.warp-shuffle"),
            &metrics::counter("plan.kind.shared-memory"),
            &metrics::counter("plan.kind.shared-padded"),
            &metrics::counter("plan.kind.shared-scalar"),
        };
        kindCounters[static_cast<int>(kind)]->inc();
    };

    // Each rung gets its own span so a trace shows where planning time
    // went and why the ladder stepped down (see DESIGN.md
    // "Observability" for the taxonomy).
    auto rejectRung = [&notes](trace::Span &rung) {
        if (!rung.active())
            return;
        rung.arg("outcome", "reject");
        if (!notes.empty())
            rung.arg("reason", notes.notes.back().toString());
    };

    // Rung 1: no movement at all.
    {
        trace::Span rung("plan.rung.noop", "plan");
        static auto &evals = metrics::counter("plan.rung.noop.evaluated");
        evals.inc();
        if (!skipped("plan.noop") && conversionIsNoOp(src, dst)) {
            rung.arg("outcome", "accept");
            rung.arg("cycles", 0.0);
            plan.kind = ConversionKind::NoOp;
            countKind(plan.kind);
            return plan;
        }
        rejectRung(rung);
    }

    // Rung 2: data stays within each thread.
    {
        trace::Span rung("plan.rung.register-permute", "plan");
        static auto &evals =
            metrics::counter("plan.rung.register-permute.evaluated");
        evals.inc();
        if (!skipped("plan.register-permute") &&
            conversionIsRegisterPermute(src, dst)) {
            plan.kind = ConversionKind::RegisterPermute;
            rung.arg("outcome", "accept");
            if (rung.active())
                rung.arg("cycles",
                         plan.estimateCycles(src, elemBytes, spec));
            countKind(plan.kind);
            return plan;
        }
        rejectRung(rung);
    }

    // Rung 3: data stays within each warp.
    {
        trace::Span rung("plan.rung.warp-shuffle", "plan");
        static auto &evals =
            metrics::counter("plan.rung.warp-shuffle.evaluated");
        evals.inc();
        if (!skipped("plan.warp-shuffle")) {
            auto shuffle = planWarpShuffle(src, dst, elemBytes, spec);
            if (shuffle) {
                plan.kind = ConversionKind::WarpShuffle;
                plan.shuffle = std::move(*shuffle);
                rung.arg("outcome", "accept");
                if (rung.active()) {
                    rung.arg("cycles",
                             plan.estimateCycles(src, elemBytes, spec));
                    rung.arg("vec", plan.shuffle->vecElems);
                    rung.arg("rounds", plan.shuffle->rounds);
                    rung.arg("communicating_rounds",
                             plan.shuffle->communicatingRounds());
                }
                countKind(plan.kind);
                return plan;
            }
            // Not-applicable is the ordinary road to shared memory;
            // only a degenerate exchange structure is worth reporting.
            if (shuffle.diag().code != DiagCode::ShuffleNotApplicable)
                notes.note(shuffle.diag());
            if (rung.active()) {
                rung.arg("outcome", "reject");
                rung.arg("reason", shuffle.diag().toString());
            }
        } else {
            rejectRung(rung);
        }
    }

    // Rungs 4-6 go through shared memory. The matrix instructions are
    // independently droppable riders on rung 4.
    {
        bool allowLdmatrix = true;
        if (LL_FAILPOINT("plan.ldmatrix")) {
            allowLdmatrix = false;
            notes.note(DiagCode::FailpointInjected, "plan.ldmatrix",
                       "failpoint dropped ldmatrix from the shared plan");
        }
        bool allowStmatrix = true;
        if (LL_FAILPOINT("plan.stmatrix")) {
            allowStmatrix = false;
            notes.note(DiagCode::FailpointInjected, "plan.stmatrix",
                       "failpoint dropped stmatrix from the shared plan");
        }

        // Rung 4: optimally swizzled shared memory. Candidates: the F2
        // construction and, on 2D tensors, the legacy-parameter mma swizzle
        // whose vec-granular phases keep 16-byte rows intact and so stay
        // divisible by the ldmatrix/stmatrix tiles. A candidate too big for
        // the CTA budget is windowed. Pick by modeled cost.
        trace::Span rung("plan.rung.shared-memory", "plan");
        static auto &evals =
            metrics::counter("plan.rung.shared-memory.evaluated");
        evals.inc();
        std::vector<SwizzledShared> candidates;
        if (!skipped("plan.optimal-swizzle")) {
            auto opt = tryComputeOptimalSwizzle(src, dst, elemBytes, spec);
            if (opt)
                candidates.push_back(std::move(*opt));
            else
                notes.note(opt.diag());
        }
        if (!skipped("plan.legacy-swizzle") &&
            (spec.hasLdmatrix || spec.hasStmatrix) && elemBytes <= 4 &&
            src.getNumOutDims() == 2) {
            auto outs = src.getOutDims();
            auto fast = parseDimIndex(outs[0].first);
            auto slow = parseDimIndex(outs[1].first);
            if (!fast || !slow || *fast > 1 || *slow > 1 || *fast == *slow) {
                notes.note(DiagCode::LegacySwizzleUnavailable,
                           "plan.legacy-swizzle",
                           "output dims are not the dim0/dim1 pair the "
                           "legacy mma swizzle expects");
            } else {
                triton::Shape shape = {0, 0};
                shape[static_cast<size_t>(*fast)] = outs[0].second;
                shape[static_cast<size_t>(*slow)] = outs[1].second;
                std::vector<int32_t> order = {*fast, 1 - *fast};
                auto params = triton::chooseMmaSwizzleParams(
                    elemBytes, shape[static_cast<size_t>(*fast)]);
                auto legacy = triton::mmaSwizzledSharedLayout(
                    shape, params.vec, params.perPhase, params.maxPhase,
                    order);
                auto wrapped =
                    tryWrapMemoryLayout(legacy, src, dst, elemBytes, spec);
                if (wrapped)
                    candidates.push_back(std::move(*wrapped));
                else
                    notes.note(wrapped.diag());
            }
        }

        bool haveBest = false;
        double bestCost = 0.0;
        int bestMatrixSides = 0;
        ConversionPlan best;
        const int64_t numElems = src.getTotalOutDimSize();
        for (auto &cand : candidates) {
            // A tile bigger than one CTA keeps its swizzle and runs in
            // windowed passes. Only a budget that cannot hold one
            // vectorized access leaves the candidate unwindowed, for
            // evaluateSharedCandidate to reject as CtaBudgetExceeded.
            if (!sim::SharedMemory::fits(spec, elemBytes,
                                         cand.storageElems(numElems)))
                cand.windowElems =
                    ctaWindowElems(elemBytes, spec, cand.vecElems());
            try {
                auto evaluated = evaluateSharedCandidate(
                    plan, std::move(cand), src, dst, elemBytes, spec,
                    allowLdmatrix, allowStmatrix);
                if (!evaluated) {
                    notes.note(evaluated.diag());
                    continue;
                }
                ConversionPlan trial = std::move(*evaluated);
                trial.kind = ConversionKind::SharedMemory;
                double cost = trial.estimateCycles(src, elemBytes, spec);
                // Cost ties (common: several conflict-free layouts) break
                // toward the candidate using more matrix-instruction sides
                // — ldmatrix/stmatrix save issue slots the wavefront count
                // cannot see.
                int matrixSides = (trial.usesLdmatrix ? 1 : 0) +
                                  (trial.usesStmatrix ? 1 : 0);
                constexpr double kTie = 1e-9;
                if (!haveBest || cost < bestCost - kTie ||
                    (cost <= bestCost + kTie &&
                     matrixSides > bestMatrixSides)) {
                    haveBest = true;
                    bestCost = cost;
                    bestMatrixSides = matrixSides;
                    best = std::move(trial);
                }
            } catch (const std::exception &e) {
                notes.note(DiagCode::PlannerInternalError,
                           "plan.optimal-swizzle",
                           std::string("shared candidate rejected: ") +
                               e.what());
            }
        }
        if (rung.active()) {
            rung.arg("candidates",
                      static_cast<int64_t>(candidates.size()));
            rung.arg("outcome", haveBest ? "accept" : "reject");
            if (haveBest) {
                rung.arg("cycles", bestCost);
                rung.arg("store_wavefronts", best.storeWavefrontsTotal);
                rung.arg("load_wavefronts", best.loadWavefrontsTotal);
            } else if (!notes.empty()) {
                rung.arg("reason", notes.notes.back().toString());
            }
        }
        if (haveBest) {
            countKind(best.kind);
            return best;
        }
    }

    // Rung 5: unswizzled shared memory with bank-offset padding.
    {
        trace::Span rung("plan.rung.shared-padded", "plan");
        static auto &evals =
            metrics::counter("plan.rung.shared-padded.evaluated");
        evals.inc();
        auto padded = planPaddedShared(src, dst, elemBytes, spec);
        if (padded) {
            try {
                // No ldmatrix/stmatrix on the fallback rungs: matrix
                // instructions belong to the optimally swizzled plan,
                // and pricing them here would let a degraded rung
                // undercut the rung above it.
                auto evaluated = evaluateSharedCandidate(
                    plan, std::move(*padded), src, dst, elemBytes, spec,
                    /*allowLdmatrix=*/false, /*allowStmatrix=*/false);
                if (evaluated) {
                    ConversionPlan trial = std::move(*evaluated);
                    trial.kind = ConversionKind::SharedPadded;
                    rung.arg("outcome", "accept");
                    if (rung.active()) {
                        rung.arg("cycles", trial.estimateCycles(
                                               src, elemBytes, spec));
                        rung.arg("store_wavefronts",
                                 trial.storeWavefrontsTotal);
                        rung.arg("load_wavefronts",
                                 trial.loadWavefrontsTotal);
                    }
                    countKind(trial.kind);
                    return trial;
                }
                notes.note(evaluated.diag());
            } catch (const std::exception &e) {
                notes.note(DiagCode::PaddedUnavailable, "plan.padded",
                           std::string("padded candidate rejected: ") +
                               e.what());
            }
        } else {
            notes.note(padded.diag());
        }
        rejectRung(rung);
    }

    // Rung 6: element-wise scalar round trip — the terminal rung,
    // correct for any surjective pair.
    {
        trace::Span rung("plan.rung.shared-scalar", "plan");
        static auto &evals =
            metrics::counter("plan.rung.shared-scalar.evaluated");
        evals.inc();
        auto scalar = planScalarShared(src, dst, elemBytes, spec);
        if (scalar) {
            try {
                auto evaluated = evaluateSharedCandidate(
                    plan, std::move(*scalar), src, dst, elemBytes, spec,
                    /*allowLdmatrix=*/false, /*allowStmatrix=*/false);
                if (evaluated) {
                    ConversionPlan trial = std::move(*evaluated);
                    trial.kind = ConversionKind::SharedScalar;
                    rung.arg("outcome", "accept");
                    if (rung.active()) {
                        rung.arg("cycles", trial.estimateCycles(
                                               src, elemBytes, spec));
                        rung.arg("store_wavefronts",
                                 trial.storeWavefrontsTotal);
                        rung.arg("load_wavefronts",
                                 trial.loadWavefrontsTotal);
                    }
                    countKind(trial.kind);
                    return trial;
                }
                notes.note(evaluated.diag());
            } catch (const std::exception &e) {
                notes.note(DiagCode::ScalarUnavailable, "plan.scalar",
                           std::string("scalar candidate rejected: ") +
                               e.what());
            }
        } else {
            notes.note(scalar.diag());
        }
        rejectRung(rung);
    }

    // The whole ladder failed (only reachable by injection).
    return makeDiag(DiagCode::PlannerInternalError, "plan",
                    "every rung of the fallback ladder failed: " +
                        notes.toString());
}

Result<ConversionPlan>
tryPlanConversion(const LinearLayout &src, const LinearLayout &dst,
                  int elemBytes, const sim::GpuSpec &spec)
{
    trace::Span span("plan.conversion", "plan");
    static auto &attempts = metrics::counter("plan.attempts");
    attempts.inc();
    auto result = tryPlanConversionImpl(src, dst, elemBytes, spec);
    if (result.ok()) {
        static auto &planned = metrics::counter("plan.planned");
        planned.inc();
        const double cycles =
            result->estimateCycles(src, elemBytes, spec);
        static auto &cyclesHist = metrics::Registry::instance().histogram(
            "plan.cycles", {1.0, 10.0, 100.0, 1000.0, 10000.0});
        cyclesHist.observe(cycles);
        if (span.active()) {
            span.arg("kind", toString(result->kind));
            span.arg("cycles", cycles);
            span.arg("rungs_rejected",
                     static_cast<int64_t>(result->diagnostics.notes.size()));
        }
    } else {
        static auto &failed = metrics::counter("plan.failed");
        failed.inc();
        if (span.active()) {
            span.arg("kind", "unplanned");
            span.arg("error", result.diag().toString());
        }
    }
    return result;
}

ConversionPlan
planConversion(const LinearLayout &src, const LinearLayout &dst,
               int elemBytes, const sim::GpuSpec &spec)
{
    auto plan = tryPlanConversion(src, dst, elemBytes, spec);
    llUserCheck(plan.ok(), "planConversion failed: " +
                               plan.diag().toString());
    return std::move(*plan);
}

double
ConversionPlan::estimateCycles(const LinearLayout &src, int elemBytes,
                               const sim::GpuSpec &spec) const
{
    const int numRegsSrc =
        src.hasInDim(dims::kReg) ? src.getInDimSize(dims::kReg) : 1;
    const int numWarpsSrc =
        src.hasInDim(dims::kWarp) ? src.getInDimSize(dims::kWarp) : 1;
    switch (kind) {
      case ConversionKind::NoOp:
        return 0.0;
      case ConversionKind::RegisterPermute:
        // Register moves retire at ~1 per cycle but typically fold into
        // surrounding instructions; charge a quarter cycle each.
        return 0.25 * numRegsSrc;
      case ConversionKind::WarpShuffle:
        return static_cast<double>(
                   shuffle->countShuffleInstructions(elemBytes)) *
               spec.shuffleCycles;
      case ConversionKind::SharedMemory:
      case ConversionKind::SharedPadded:
      case ConversionKind::SharedScalar: {
        // Every shared rung is priced by its whole-pass wavefront
        // totals — the counts smokeExecutePlan audits (CostMismatch) —
        // serialized per warp, plus one round-trip barrier per pass (a
        // windowed plan pays it once per window). ldmatrix/stmatrix
        // replace a side's plain accesses only when the tile pricing
        // is actually cheaper, so the instructions can never make a
        // plan look worse than not using them; only rung 4 sets them.
        double storeCycles = static_cast<double>(storeWavefrontsTotal) /
                             numWarpsSrc * spec.sharedWavefrontCycles;
        double loadCycles = static_cast<double>(loadWavefrontsTotal) /
                            numWarpsSrc * spec.sharedWavefrontCycles;
        double tiles = std::max(1.0, numRegsSrc * elemBytes / 16.0);
        if (usesStmatrix)
            storeCycles = std::min(storeCycles,
                                   tiles * spec.ldmatrixCyclesPerTile);
        if (usesLdmatrix)
            loadCycles = std::min(loadCycles,
                                  tiles * spec.ldmatrixCyclesPerTile);
        const double passes = static_cast<double>(
            shared->passesFor(src.getTotalOutDimSize()));
        return storeCycles + loadCycles +
               passes * spec.sharedRoundTripCycles;
      }
    }
    return 0.0;
}

} // namespace codegen
} // namespace ll
