/**
 * @file
 * Differential-testing support for the cute domain: generators over
 * nested (shape,stride) layouts, a tagged-buffer oracle for the
 * admission pass, `.cute` corpus (de)serialization, and shrinkers.
 *
 * Two differential surfaces live here:
 *
 *  - *bridge level*: a random CuteLayout is evaluated by brute-force
 *    index enumeration and, when the bridge accepts it, through
 *    LinearLayout::applyFlat on the bridged layout — any divergence is
 *    a bug in the bridge or in isLinearizable's accept direction, and
 *    every isLinearizable rejection of a pow2-extent layout must be
 *    justified by an explicit XOR-linearity witness (the exactness of
 *    the reject direction);
 *
 *  - *admission level*: a random well-formed CuteConversionRequest is
 *    planned by cute::tryPlanCuteConversion, executed, and checked
 *    element-for-element against the storage-relayout semantic
 *    dstBuf[dst(i)] = srcBuf[src(i)], with the pow2 core's distributed
 *    plan additionally audited by the existing register-file oracle
 *    (check::checkPlan).
 *
 * Both surfaces are driven by llfuzz --diff-cute and replayed from the
 * committed `.cute` corpus by tests/cute_bridge_test.cpp.
 */

#ifndef LL_CHECK_CUTE_CHECK_H
#define LL_CHECK_CUTE_CHECK_H

#include <functional>
#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "cute/admit.h"
#include "cute/cute_layout.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace check {

/** Bounds for the cute-domain generators. */
struct CuteGenOptions
{
    int maxModes = 4;          ///< top-level modes per generated layout
    int64_t maxExtent = 12;    ///< per-mode extent bound
    int64_t maxElements = int64_t(1) << 12; ///< domain-size cap
    bool allowNested = true;   ///< emit depth-2 modes sometimes
    bool allowZeroStride = true; ///< emit degenerate (broadcast) strides
};

/**
 * A random nested (shape,stride) layout: non-pow2 extents, size-1
 * modes, zero strides, and occasional depth-2 nesting, with the domain
 * capped at opt.maxElements. This is the bridge-level fuzz input; it
 * makes no injectivity promises.
 */
cute::CuteLayout randomCuteLayout(std::mt19937 &rng,
                                  const CuteGenOptions &opt = {});

/** One admission-level differential case. */
struct CuteCase
{
    cute::CuteConversionRequest request;
    std::string specName = "gh200";
    std::string summary;

    sim::GpuSpec spec() const;
};

/**
 * A random well-formed admission case: a shared logical shape mixing
 * pow2 and non-pow2 extents, and on each side an injective storage
 * layout (a compact layout in a random permuted order, with optional
 * padding gaps between tiles).
 */
CuteCase randomCuteCase(std::mt19937 &rng,
                        const CuteGenOptions &opt = {});

/** Verdict of one admission-oracle run. */
struct CuteOracleReport
{
    /** Planning succeeded (false => detail holds the Diagnostic). */
    bool planned = false;
    /** Execution stats agreed with the plan's core/remainder split. */
    bool structureOk = true;
    int64_t elementsChecked = 0;
    /** Destination slots holding the wrong element. */
    int64_t mismatches = 0;
    int64_t coreElems = 0;
    int64_t remainderElems = 0;
    int64_t windows = 0;
    /** The core's distributed plan was audited by check::checkPlan. */
    bool coreAudited = false;
    OracleReport coreReport;
    std::string detail;

    bool
    ok() const
    {
        return planned && structureOk && mismatches == 0 &&
               (!coreAudited || coreReport.ok());
    }

    std::string toString() const;
};

/** Execute an already-built plan on tagged buffers and audit it. */
CuteOracleReport checkCutePlan(const cute::CutePlan &plan,
                               const cute::CuteConversionRequest &req,
                               const sim::GpuSpec &spec);

/** Plan a case with cute::tryPlanCuteConversion, then audit. */
CuteOracleReport checkCuteCase(const CuteCase &c);

/** Demotion-aware admission audit (mirrors checkCaseWithDemotion). */
struct CuteDemotionReport
{
    codegen::ConversionKind initialKind = codegen::ConversionKind::NoOp;
    codegen::ConversionKind finalKind = codegen::ConversionKind::NoOp;
    int demotions = 0;
    /** False when the core plan ran out of rungs to demote to. */
    bool survived = true;
    CuteOracleReport report;
    std::vector<std::string> notes;
};

/**
 * Decompose the case, run the core's distributed conversion through
 * codegen::planAndVerify (plan, smoke-execute, demote until a rung
 * survives), then run the full admission oracle on the surviving plan.
 * Cases with no core plan (single-element box) skip straight to the
 * oracle.
 */
CuteDemotionReport checkCuteCaseWithDemotion(const CuteCase &c);

// ---------------------------------------------------------------------
// `.cute` corpus format: line-oriented, '#' comments, layouts in
// CuteLayout::toString form.
//
//     spec gh200
//     elemBytes 2
//     numWarps 4
//     summary 3x5x7 col->row @gh200 b2
//     src (3,5,7):(1,3,15)
//     dst (3,5,7):(35,7,1)
// ---------------------------------------------------------------------

void writeCuteCase(std::ostream &os, const CuteCase &c);
CuteCase readCuteCase(std::istream &is);
void writeCuteCaseFile(const std::string &path, const CuteCase &c);
CuteCase readCuteCaseFile(const std::string &path);

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/** True when the failure of interest still reproduces. */
using CuteLayoutPredicate = std::function<bool(const cute::CuteLayout &)>;

/**
 * Greedily minimize a bridge-level failing layout: drop modes, shrink
 * extents (halve / floor-pow2 / decrement), zero or halve strides,
 * flatten nesting — keeping each move only while `stillFails` holds.
 */
cute::CuteLayout shrinkCuteLayout(const cute::CuteLayout &failing,
                                  const CuteLayoutPredicate &stillFails,
                                  int maxChecks = 2000);

/** Re-runs plan+audit on a candidate case (may throw). */
using CuteCaseChecker = std::function<CuteOracleReport(const CuteCase &)>;

struct CuteShrinkResult
{
    CuteCase minimized;
    int steps = 0;
    CuteOracleReport report;
    std::string exceptionMessage;
};

/**
 * Greedily minimize an admission-level failing case: drop logical
 * dims from both sides, shrink extents (keeping the sides' logical
 * shapes equal and both storage maps valid), reduce elemBytes. A
 * candidate is accepted when the checker reports not-ok or throws.
 */
CuteShrinkResult shrinkCuteCase(const CuteCase &failing,
                                const CuteCaseChecker &checker,
                                int maxChecks = 2000);

} // namespace check
} // namespace ll

#endif // LL_CHECK_CUTE_CHECK_H
