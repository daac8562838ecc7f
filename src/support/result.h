/**
 * @file
 * Structured error propagation for the planning pipeline.
 *
 * The planner stack (codegen/conversion and the stages below it) is a
 * *total* function: for any pair of valid layouts some rung of the
 * fallback ladder must produce a correct plan. Stages therefore report
 * "this rung does not apply here" as data — a Diagnostic with a stable
 * code and the stage that raised it — instead of throwing. Exceptions
 * remain reserved for invalid caller input (UserError at the public
 * boundary) and genuine internal bugs that escaped conversion.
 */

#ifndef LL_SUPPORT_RESULT_H
#define LL_SUPPORT_RESULT_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/diagnostics.h"

namespace ll {

/** Stable identifiers for why a planning stage declined or failed. */
enum class DiagCode
{
    InvalidInput,            ///< caller precondition violated
    NonPow2Bridgeable,       ///< well-formed but non-pow2: needs the
                             ///< cute admission path, not a rejection
    ShuffleNotApplicable,    ///< conversion is not intra-warp/injective
    ShuffleDegenerate,       ///< exchange structure unprovable
    SwizzleBasisIncomplete,  ///< optimal-swizzle basis construction failed
    LegacySwizzleUnavailable,///< mma-parameter candidate not constructible
    TileMismatch,            ///< ldmatrix/stmatrix tile does not divide
    PaddedUnavailable,       ///< padded shared rung failed
    ScalarUnavailable,       ///< scalar shared rung failed (terminal)
    CtaBudgetExceeded,       ///< allocation exceeds the CTA shared budget
    FailpointInjected,       ///< a failpoint forced this stage off
    DeadlineExceeded,        ///< the request's deadline cut this stage off
    PlannerInternalError,    ///< unexpected exception inside a stage
};

std::string toString(DiagCode code);

/** One structured note: what failed, where, and why. */
struct Diagnostic
{
    DiagCode code = DiagCode::PlannerInternalError;
    /** Stage/failpoint site that raised it ("plan.warp-shuffle", ...). */
    std::string stage;
    std::string message;

    std::string toString() const;
};

inline Diagnostic
makeDiag(DiagCode code, std::string stage, std::string message)
{
    return Diagnostic{code, std::move(stage), std::move(message)};
}

/**
 * Stable identifiers for why an *executor* failed at runtime. Planning
 * codes (DiagCode) describe why a rung was not built; these describe
 * why a built plan could not be run — a different failure domain with
 * a different consumer (the checks that execute plans, which fail on
 * one).
 */
enum class ExecError
{
    PlanShapeMismatch,     ///< register file shape disagrees with the plan
    LaneOutOfRange,        ///< gather source lane outside the warp
    RegisterOutOfRange,    ///< register index outside the file
    NonInvertibleStep,     ///< a layout inversion the plan relied on failed
    CrossWarpSource,       ///< intra-warp plan asked for another warp's data
    SharedWindowOverflow,  ///< shared offset outside the allocated window
    BankBudgetExceeded,    ///< measured wavefronts blew the conflict budget
    DataMismatch,          ///< a destination register got the wrong value
    CostMismatch,          ///< measured wavefronts differ from the priced
    ExecInternalError,     ///< unexpected exception inside an executor
};

std::string toString(ExecError code);

/** One structured execution-failure note: what failed, where, and why. */
struct ExecDiagnostic
{
    ExecError code = ExecError::ExecInternalError;
    /** Executor stage ("exec.shuffle.reg-range", ...). */
    std::string stage;
    std::string message;

    std::string toString() const;
};

inline ExecDiagnostic
makeExecDiag(ExecError code, std::string stage, std::string message)
{
    return ExecDiagnostic{code, std::move(stage), std::move(message)};
}

/**
 * Value-or-error. Deliberately exposes the std::optional accessor
 * surface (has_value / operator bool / * / ->) so call sites written
 * against the old optional-returning planner APIs compile unchanged.
 * The error type defaults to Diagnostic (planning); executors return
 * Result<T, ExecDiagnostic>.
 */
template <typename T, typename E = Diagnostic>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {} // NOLINT(implicit)
    Result(E diag) : diag_(std::move(diag)) {} // NOLINT(implicit)

    bool ok() const { return value_.has_value(); }
    bool has_value() const { return value_.has_value(); }
    explicit operator bool() const { return value_.has_value(); }

    T &value()
    {
        llAssert(value_.has_value(),
                 "Result::value() on failure: " << diag_.toString());
        return *value_;
    }
    const T &value() const
    {
        llAssert(value_.has_value(),
                 "Result::value() on failure: " << diag_.toString());
        return *value_;
    }
    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** The failure note; meaningful only when !ok(). */
    const E &diag() const { return diag_; }

  private:
    std::optional<T> value_;
    E diag_;
};

/** Accumulated per-stage notes explaining how a plan was reached. */
struct PlanDiagnostics
{
    std::vector<Diagnostic> notes;

    void
    note(DiagCode code, std::string stage, std::string message)
    {
        notes.push_back(
            makeDiag(code, std::move(stage), std::move(message)));
    }
    void note(Diagnostic d) { notes.push_back(std::move(d)); }

    bool empty() const { return notes.empty(); }

    /** All notes joined with "; " (empty string when clean). */
    std::string toString() const;
};

} // namespace ll

#endif // LL_SUPPORT_RESULT_H
