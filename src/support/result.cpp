#include "support/result.h"

#include <sstream>

namespace ll {

std::string
toString(DiagCode code)
{
    switch (code) {
      case DiagCode::InvalidInput:
        return "invalid-input";
      case DiagCode::NonPow2Bridgeable:
        return "non-pow2-bridgeable";
      case DiagCode::ShuffleNotApplicable:
        return "shuffle-not-applicable";
      case DiagCode::ShuffleDegenerate:
        return "shuffle-degenerate";
      case DiagCode::SwizzleBasisIncomplete:
        return "swizzle-basis-incomplete";
      case DiagCode::LegacySwizzleUnavailable:
        return "legacy-swizzle-unavailable";
      case DiagCode::TileMismatch:
        return "tile-mismatch";
      case DiagCode::PaddedUnavailable:
        return "padded-unavailable";
      case DiagCode::ScalarUnavailable:
        return "scalar-unavailable";
      case DiagCode::CtaBudgetExceeded:
        return "cta-budget-exceeded";
      case DiagCode::FailpointInjected:
        return "failpoint-injected";
      case DiagCode::PlannerInternalError:
        return "planner-internal-error";
    }
    return "unknown";
}

std::string
toString(ExecError code)
{
    switch (code) {
      case ExecError::PlanShapeMismatch:
        return "plan-shape-mismatch";
      case ExecError::LaneOutOfRange:
        return "lane-out-of-range";
      case ExecError::RegisterOutOfRange:
        return "register-out-of-range";
      case ExecError::NonInvertibleStep:
        return "non-invertible-step";
      case ExecError::CrossWarpSource:
        return "cross-warp-source";
      case ExecError::SharedWindowOverflow:
        return "shared-window-overflow";
      case ExecError::BankBudgetExceeded:
        return "bank-budget-exceeded";
      case ExecError::DataMismatch:
        return "data-mismatch";
      case ExecError::CostMismatch:
        return "cost-mismatch";
      case ExecError::ExecInternalError:
        return "exec-internal-error";
    }
    return "unknown";
}

std::string
ExecDiagnostic::toString() const
{
    std::ostringstream os;
    os << "[" << stage << "] " << ll::toString(code);
    if (!message.empty())
        os << ": " << message;
    return os.str();
}

std::string
Diagnostic::toString() const
{
    std::ostringstream os;
    os << "[" << stage << "] " << ll::toString(code);
    if (!message.empty())
        os << ": " << message;
    return os.str();
}

std::string
PlanDiagnostics::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < notes.size(); ++i)
        os << (i ? "; " : "") << notes[i].toString();
    return os.str();
}

} // namespace ll
