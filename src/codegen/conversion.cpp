#include "codegen/conversion.h"

#include <algorithm>

#include "codegen/shared_exec.h"
#include "codegen/tiles.h"
#include "triton/encodings.h"
#include "layout/dims.h"
#include "sim/memory_sim.h"
#include "support/deadline.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

namespace {

/** Can ldmatrix/stmatrix service this resource->offset map? */
bool
matchesLdmatrixTile(const LinearLayout &cvt, int elemBytes)
{
    if (elemBytes > 4)
        return false;
    LinearLayout tile = ldmatrixTile(elemBytes);
    if (tileMatches(cvt, tile))
        return true;
    auto permuted = permuteRegistersForTile(cvt, 4 / elemBytes);
    return permuted.has_value() && tileMatches(*permuted, tile);
}

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
 * demotes instead of the executor aborting. Throws only on internal
 * invariant violations, which the caller turns into a
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
    LinearLayout toOffset =
        cand.tensorToOffset.transposeIns(src.getOutDimNames());
    LinearLayout storeCvt = src.compose(toOffset);
    LinearLayout loadCvt =
        dst.transposeOuts(src.getOutDimNames()).compose(toOffset);
    trial.usesStmatrix = allowStmatrix && spec.hasStmatrix &&
                         !cand.padded() &&
                         matchesLdmatrixTile(storeCvt, elemBytes);
    trial.usesLdmatrix = allowLdmatrix && spec.hasLdmatrix &&
                         !cand.padded() &&
                         matchesLdmatrixTile(loadCvt, elemBytes);
    trial.storeWavefrontsTotal =
        enumerateWavefronts(cand, src, elemBytes, spec);
    trial.loadWavefrontsTotal =
        enumerateWavefronts(cand, dst, elemBytes, spec);
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
        for (const auto &round : s.xfers) {
            mix(round.size());
            for (const ShuffleXfer &x : round) {
                mix(static_cast<uint64_t>(
                    static_cast<int64_t>(x.srcLane)));
                mix(x.regPairs.size());
                for (const auto &[a, b] : x.regPairs) {
                    mix(static_cast<uint64_t>(static_cast<int64_t>(a)));
                    mix(static_cast<uint64_t>(static_cast<int64_t>(b)));
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
executionFailpointSites()
{
    return {
        "exec.shuffle.shape",     "exec.shuffle.lane-range",
        "exec.shuffle.reg-range", "exec.gather.invert",
        "exec.gather.index-range", "exec.gather.cross-warp",
        "exec.shared.file-size",  "exec.shared.alloc",
        "exec.shared.window",     "exec.shared.bank-budget",
    };
}

std::vector<std::string>
demotionSitesFor(ConversionKind kind)
{
    // Cumulative knockout sets: disabling every rung at or above `kind`
    // forces the re-plan strictly below it. The shared executors serve
    // rungs 4-6 alike, so the engine cannot tell from an ExecDiagnostic
    // which shared rung misbehaved — it demotes the one the plan names.
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
        return {}; // terminal: nowhere left to demote to
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

namespace {
// Ladder positions, used to resume planning strictly below a failed
// rung. Matches the rung order in tryPlanConversionImpl.
enum Rung : int {
    kRungNoOp = 1,
    kRungRegisterPermute = 2,
    kRungWarpShuffle = 3,
    kRungSharedMemory = 4,
    kRungSharedPadded = 5,
    kRungSharedScalar = 6,
};
} // namespace

static Result<ConversionPlan>
tryPlanConversionImpl(const LinearLayout &src, const LinearLayout &dst,
                      int elemBytes, const sim::GpuSpec &spec,
                      int startRung = kRungNoOp)
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

    // Cooperative cancellation for the serving path: when the calling
    // request's deadline (deadline::Scoped, thread-local) has expired,
    // the rung boundaries below skip straight to the terminal scalar
    // rung instead of sweeping the expensive middle rungs. The demoted
    // plan stays correct — scalar is total over valid inputs — and the
    // DeadlineExceeded note keeps it out of the shared plan cache (the
    // demotion reflects load, not the inputs). Checked only between
    // rungs, so a rung in progress always completes its evaluation.
    bool deadlineDemoted = false;
    auto deadlineCutoff = [&]() {
        if (deadlineDemoted)
            return true;
        if (!deadline::expired())
            return false;
        deadlineDemoted = true;
        notes.note(DiagCode::DeadlineExceeded, "plan.deadline",
                   "request deadline expired mid-plan; demoting to the "
                   "terminal scalar rung");
        static auto &demotions =
            metrics::counter("plan.deadline_demotions");
        demotions.inc();
        return true;
    };

    // plan.kind.<kind> counts every accepted rung, the re-plans of a
    // demotion (tryReplanBelow) included, so it pairs with the
    // plan.rung.<rung>.evaluated counters as the ladder's accept count.
    auto countKind = [](ConversionKind kind) {
        metrics::counter("plan.kind." + toString(kind)).inc();
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
    if (startRung <= kRungNoOp) {
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
    if (startRung <= kRungRegisterPermute) {
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
    if (startRung <= kRungWarpShuffle && !deadlineCutoff()) {
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
                if (rung.active())
                    rung.arg("cycles",
                             plan.estimateCycles(src, elemBytes, spec));
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
    if (startRung <= kRungSharedMemory && !deadlineCutoff()) {
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
    trace::Span rung4("plan.rung.shared-memory", "plan");
    static auto &rung4Evals =
        metrics::counter("plan.rung.shared-memory.evaluated");
    rung4Evals.inc();
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
    if (rung4.active()) {
        rung4.arg("candidates",
                  static_cast<int64_t>(candidates.size()));
        rung4.arg("outcome", haveBest ? "accept" : "reject");
        if (haveBest) {
            rung4.arg("cycles", bestCost);
            rung4.arg("store_wavefronts", best.storeWavefrontsTotal);
            rung4.arg("load_wavefronts", best.loadWavefrontsTotal);
        } else if (!notes.empty()) {
            rung4.arg("reason", notes.notes.back().toString());
        }
    }
    rung4.finish();
    if (haveBest) {
        countKind(best.kind);
        return best;
    }
    } // startRung <= kRungSharedMemory

    // Rung 5: unswizzled shared memory with bank-offset padding.
    if (startRung <= kRungSharedPadded && !deadlineCutoff()) {
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

Result<ConversionPlan>
tryReplanBelow(ConversionKind failed, const LinearLayout &src,
               const LinearLayout &dst, int elemBytes,
               const sim::GpuSpec &spec)
{
    int startRung;
    switch (failed) {
      case ConversionKind::NoOp:
        startRung = kRungRegisterPermute;
        break;
      case ConversionKind::RegisterPermute:
        startRung = kRungWarpShuffle;
        break;
      case ConversionKind::WarpShuffle:
        startRung = kRungSharedMemory;
        break;
      case ConversionKind::SharedMemory:
        startRung = kRungSharedPadded;
        break;
      case ConversionKind::SharedPadded:
        startRung = kRungSharedScalar;
        break;
      case ConversionKind::SharedScalar:
      default:
        return makeDiag(DiagCode::PlannerInternalError, "plan.replan",
                        "the terminal scalar rung failed in execution; "
                        "nothing below it to demote to");
    }
    trace::Span span("plan.replan", "plan");
    static auto &replans = metrics::counter("plan.replans");
    replans.inc();
    auto result =
        tryPlanConversionImpl(src, dst, elemBytes, spec, startRung);
    if (span.active()) {
        span.arg("below", toString(failed));
        span.arg("outcome",
                 result.ok() ? toString(result->kind) : "unplanned");
    }
    return result;
}

namespace {
/** Run one planner entry point, turning an exception into a
 *  PlannerInternalError diagnostic attributed to `stage`. */
template <typename PlanFn>
Result<ConversionPlan>
planGuarded(const char *stage, PlanFn &&plan)
{
    try {
        return plan();
    } catch (const std::exception &e) {
        return makeDiag(DiagCode::PlannerInternalError, stage,
                        std::string("planner threw: ") + e.what());
    }
}
} // namespace

VerifiedPlan
planAndVerify(const LinearLayout &src, const LinearLayout &dst,
              int elemBytes, const sim::GpuSpec &spec)
{
    VerifiedPlan out(planGuarded("plan.verify", [&] {
        return tryPlanConversion(src, dst, elemBytes, spec);
    }));
    if (!out.plan.ok())
        return out;
    out.initialKind = out.plan->kind;
    while (true) {
        trace::Span iter("convert.demotion-iter", "plan");
        const std::string kind = toString(out.plan->kind);
        if (iter.active())
            iter.arg("kind", kind);
        auto fail = smokeExecutePlan(*out.plan, src, dst, elemBytes, spec);
        if (!fail.has_value()) {
            iter.arg("outcome", "smoke-ok");
            return out;
        }
        out.notes.push_back("convert:" + kind +
                            " execution failed: " + fail->toString());
        if (out.plan->kind == ConversionKind::SharedScalar) {
            // Nothing below the terminal rung to demote to.
            out.execFailed = true;
            iter.arg("outcome", "terminal-failure");
            return out;
        }
        auto replanned = planGuarded("plan.replan", [&] {
            return tryReplanBelow(out.plan->kind, src, dst, elemBytes,
                                  spec);
        });
        if (!replanned.ok()) {
            out.notes.push_back("demoted re-plan failed: " +
                                replanned.diag().toString());
            out.execFailed = true;
            iter.arg("outcome", "replan-failure");
            return out;
        }
        ++out.demotions;
        out.plan = std::move(replanned);
        const std::string toKind = toString(out.plan->kind);
        if (iter.active()) {
            iter.arg("outcome", "demoted");
            iter.arg("to_kind", toKind);
        }
        out.notes.push_back("demoted to convert:" + toKind +
                            " after execution failure");
    }
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
        // totals — the counts the smoke run audits (CostMismatch) —
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
