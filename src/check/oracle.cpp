#include "check/oracle.h"

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "codegen/shared_exec.h"
#include "layout/dims.h"
#include "support/diagnostics.h"
#include "support/failpoint.h"

namespace ll {
namespace check {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

/** Canonicalize to (register, lane, warp) input order, adding size-1
 *  dims where missing so flat-index field extraction is uniform. */
LinearLayout
canonicalIns(const LinearLayout &layout)
{
    LinearLayout out = layout;
    for (const auto &dim : {kReg, kLane, kWarp}) {
        if (!out.hasInDim(dim))
            out = out * LinearLayout::identity1D(
                            1, dim, out.getOutDimNames().front());
    }
    return out.transposeIns({kReg, kLane, kWarp});
}

/** (register, lane, warp) fields of a flat input index. */
struct InFields
{
    uint64_t reg, lane, warp;
};

InFields
splitIn(const LinearLayout &layout, uint64_t in)
{
    const int regLog = layout.getInDimSizeLog2(kReg);
    const int laneLog = layout.getInDimSizeLog2(kLane);
    return {in & ((uint64_t(1) << regLog) - 1),
            (in >> regLog) & ((uint64_t(1) << laneLog) - 1),
            in >> (regLog + laneLog)};
}

std::string
describeIndex(const LinearLayout &layout, uint64_t in)
{
    auto f = splitIn(layout, in);
    std::ostringstream os;
    os << "(reg " << f.reg << ", lane " << f.lane << ", warp " << f.warp
       << ")";
    return os.str();
}

} // namespace

std::string
OracleReport::toString() const
{
    std::ostringstream os;
    os << "kind=" << codegen::toString(kind)
       << " checked=" << elementsChecked << " mismatches=" << mismatches
       << " localityViolations=" << localityViolations;
    if (!structureOk)
        os << " STRUCTURE-BROKEN";
    if (audited) {
        os << " store(analytic " << analyticStorePerAccess << "/access x "
           << storeInstructions << ", measured "
           << measuredStoreWavefronts << ")"
           << " load(analytic " << analyticLoadPerAccess << "/access x "
           << loadInstructions << ", measured " << measuredLoadWavefronts
           << ")";
        if (wavefrontsDiverge())
            os << " WAVEFRONT-DIVERGENCE";
    }
    if (totalsAudited) {
        os << " totals(planned " << plannedStoreTotal << "/"
           << plannedLoadTotal << ", measured "
           << measuredStoreWavefronts << "/" << measuredLoadWavefronts
           << ")";
        if (totalsDiverge())
            os << " TOTALS-DIVERGENCE";
    }
    if (!detail.empty())
        os << "\n  first failure: " << detail;
    return os.str();
}

OracleReport
checkPlan(const codegen::ConversionPlan &plan, const LinearLayout &srcIn,
          const LinearLayout &dstIn, int elemBytes,
          const sim::GpuSpec &spec)
{
    OracleReport report;
    report.kind = plan.kind;

    llUserCheck(srcIn.isSurjective() && dstIn.isSurjective(),
                "oracle inputs must be surjective layouts");
    LinearLayout src = canonicalIns(srcIn);
    LinearLayout dst =
        canonicalIns(dstIn.transposeOuts(srcIn.getOutDimNames()));

    // The trusted reference: each source register's element, and each
    // destination register's demanded element, by dense F2 application.
    const uint64_t srcSize =
        static_cast<uint64_t>(src.getTotalInDimSize());
    const uint64_t dstSize =
        static_cast<uint64_t>(dst.getTotalInDimSize());
    std::vector<uint64_t> srcFile(srcSize);
    for (uint64_t i = 0; i < srcSize; ++i)
        srcFile[i] = src.applyFlat(i);

    // Execute the plan on the tagged register file.
    constexpr uint64_t kUnwritten = ~uint64_t(0) - 1;
    std::vector<uint64_t> dstFile(dstSize, kUnwritten);
    switch (plan.kind) {
      case codegen::ConversionKind::NoOp: {
        // No data movement at all: every destination register must
        // already hold the right element in the source register file.
        // Register counts must agree exactly; lane/warp dims may differ
        // in size, in which case SPMD broadcast applies (a hardware
        // thread past a layout's in-dim holds its truncated
        // coordinate's data).
        if (src.getInDimSize(kReg) != dst.getInDimSize(kReg)) {
            report.structureOk = false;
            report.detail = "no-op between different register counts";
            return report;
        }
        const int regLog = src.getInDimSizeLog2(kReg);
        const int laneLog = src.getInDimSizeLog2(kLane);
        const uint64_t laneMask =
            static_cast<uint64_t>(src.getInDimSize(kLane)) - 1;
        const uint64_t warpMask =
            static_cast<uint64_t>(src.getInDimSize(kWarp)) - 1;
        for (uint64_t j = 0; j < dstSize; ++j) {
            auto fj = splitIn(dst, j);
            uint64_t i = fj.reg | ((fj.lane & laneMask) << regLog) |
                         ((fj.warp & warpMask) << (regLog + laneLog));
            dstFile[j] = srcFile[i];
        }
        break;
      }
      case codegen::ConversionKind::RegisterPermute: {
        // A register permute only shuffles registers within one thread,
        // so it is valid iff every destination register's element is
        // already held by SOME register of the same thread under the
        // source layout. (A pseudo-inverse route would false-alarm when
        // the source replicates an element across threads.) Lane/warp
        // dims smaller than the destination's broadcast SPMD-style: the
        // extra hardware threads hold the truncated coordinate's data.
        const uint64_t srcLanes =
            static_cast<uint64_t>(src.getInDimSize(kLane));
        const uint64_t srcWarps =
            static_cast<uint64_t>(src.getInDimSize(kWarp));
        std::map<std::pair<uint64_t, uint64_t>, uint64_t> held;
        for (uint64_t i = 0; i < srcSize; ++i) {
            auto f = splitIn(src, i);
            held.emplace(
                std::make_pair(f.warp * srcLanes + f.lane, srcFile[i]),
                i);
        }
        LinearLayout cvt = dst.invertAndCompose(src);
        for (uint64_t j = 0; j < dstSize; ++j) {
            auto fj = splitIn(dst, j);
            uint64_t thread = (fj.warp & (srcWarps - 1)) * srcLanes +
                              (fj.lane & (srcLanes - 1));
            uint64_t e = dst.applyFlat(j);
            auto it = held.find({thread, e});
            if (it != held.end()) {
                dstFile[j] = srcFile[it->second];
                continue;
            }
            ++report.localityViolations;
            uint64_t i = cvt.applyFlat(j);
            dstFile[j] = srcFile[i];
            if (report.detail.empty()) {
                std::ostringstream os;
                os << "register permute: dst " << describeIndex(dst, j)
                   << " needs element " << e
                   << " but its thread holds no copy (nearest at "
                   << describeIndex(src, i) << ")";
                report.detail = os.str();
            }
        }
        break;
      }
      case codegen::ConversionKind::WarpShuffle: {
        const auto &p = *plan.shuffle;
        const int numRegsA = src.getInDimSize(kReg);
        const int numLanes = src.getInDimSize(kLane);
        const int numWarps = src.getInDimSize(kWarp);
        if (p.numRegsA != numRegsA || p.warpSize != numLanes ||
            p.numRegsB != dst.getInDimSize(kReg) ||
            numLanes != dst.getInDimSize(kLane) ||
            numWarps != dst.getInDimSize(kWarp)) {
            report.structureOk = false;
            report.detail = "shuffle plan shape disagrees with layouts";
            return report;
        }
        for (int warp = 0; warp < numWarps; ++warp) {
            std::vector<std::vector<uint64_t>> regs(
                static_cast<size_t>(numLanes));
            for (int lane = 0; lane < numLanes; ++lane) {
                for (int reg = 0; reg < numRegsA; ++reg) {
                    uint64_t i =
                        static_cast<uint64_t>(reg) |
                        (static_cast<uint64_t>(lane)
                         << src.getInDimSizeLog2(kReg)) |
                        (static_cast<uint64_t>(warp)
                         << (src.getInDimSizeLog2(kReg) +
                             src.getInDimSizeLog2(kLane)));
                    regs[static_cast<size_t>(lane)].push_back(srcFile[i]);
                }
            }
            auto outOr = p.execute(regs);
            if (!outOr) {
                report.structureOk = false;
                report.detail = "shuffle execution failed: " +
                                outOr.diag().toString();
                return report;
            }
            auto &out = *outOr;
            for (int lane = 0; lane < numLanes; ++lane) {
                for (int reg = 0; reg < p.numRegsB; ++reg) {
                    uint64_t j =
                        static_cast<uint64_t>(reg) |
                        (static_cast<uint64_t>(lane)
                         << dst.getInDimSizeLog2(kReg)) |
                        (static_cast<uint64_t>(warp)
                         << (dst.getInDimSizeLog2(kReg) +
                             dst.getInDimSizeLog2(kLane)));
                    dstFile[j] = out[static_cast<size_t>(lane)]
                                    [static_cast<size_t>(reg)];
                }
            }
        }
        break;
      }
      case codegen::ConversionKind::SharedMemory:
      case codegen::ConversionKind::SharedPadded:
      case codegen::ConversionKind::SharedScalar: {
        if (!plan.shared.has_value()) {
            report.structureOk = false;
            report.detail = "shared-memory plan carries no layout";
            return report;
        }
        auto rtOr = codegen::runSharedRoundTrip(
            *plan.shared, src, dst, srcFile, elemBytes, spec);
        if (!rtOr) {
            report.structureOk = false;
            report.detail = "shared round trip failed: " +
                            rtOr.diag().toString();
            return report;
        }
        auto &rt = *rtOr;
        dstFile = rt.dstFile;
        if (plan.kind != codegen::ConversionKind::SharedPadded &&
            !plan.shared->windowed()) {
            // Lemma 9.4 applies only without padding, and windowing
            // splits each access across passes, breaking the per-access
            // uniformity the audit multiplies by.
            report.audited = true;
            report.analyticStorePerAccess = plan.storeWavefrontsPerAccess;
            report.analyticLoadPerAccess = plan.loadWavefrontsPerAccess;
        }
        report.storeInstructions = rt.storeStats.instructions;
        report.loadInstructions = rt.loadStats.instructions;
        report.measuredStoreWavefronts = rt.storeStats.wavefronts;
        report.measuredLoadWavefronts = rt.loadStats.wavefronts;
        report.totalsAudited = true;
        report.plannedStoreTotal = plan.storeWavefrontsTotal;
        report.plannedLoadTotal = plan.loadWavefrontsTotal;
        break;
      }
    }

    // Element-for-element comparison against the destination's demands.
    for (uint64_t j = 0; j < dstSize; ++j) {
        ++report.elementsChecked;
        uint64_t expect = dst.applyFlat(j);
        if (dstFile[j] != expect) {
            ++report.mismatches;
            if (report.detail.empty()) {
                std::ostringstream os;
                os << "dst " << describeIndex(dst, j)
                   << " expected element " << expect << ", got ";
                if (dstFile[j] == kUnwritten)
                    os << "nothing (never written)";
                else if (dstFile[j] == sim::SharedMemory::kPoison)
                    os << "poison (stale shared memory)";
                else
                    os << "element " << dstFile[j];
                report.detail = os.str();
            }
        }
    }
    if (report.detail.empty() && report.wavefrontsDiverge())
        report.detail = "measured wavefronts disagree with Lemma 9.4";
    if (report.detail.empty() && report.totalsDiverge())
        report.detail =
            "measured wavefront totals disagree with the plan's "
            "enumerated totals";
    return report;
}

OracleReport
checkConversionCase(const ConversionCase &c, const PlanMutator &mutate)
{
    auto spec = c.spec();
    failpoint::ScopedSet guard(c.failpoints);
    auto plan = codegen::planConversion(c.src, c.dst, c.elemBytes, spec);
    if (mutate)
        mutate(plan);
    return checkPlan(plan, c.src, c.dst, c.elemBytes, spec);
}

DemotionReport
checkCaseWithDemotion(const ConversionCase &c)
{
    auto spec = c.spec();
    failpoint::ScopedSet guard(c.failpoints);
    auto verified = codegen::planAndVerify(c.src, c.dst, c.elemBytes, spec);
    llUserCheck(verified.plan.ok(), "planConversion failed: " +
                                        verified.plan.diag().toString());
    DemotionReport out;
    out.initialKind = verified.initialKind;
    out.finalKind = verified.plan->kind;
    out.demotions = verified.demotions;
    out.survived = !verified.execFailed;
    out.notes = std::move(verified.notes);
    if (out.survived)
        out.report = checkPlan(*verified.plan, c.src, c.dst, c.elemBytes,
                               spec);
    return out;
}

bool
injectSwizzleAliasBug(codegen::ConversionPlan &plan)
{
    if (!plan.shared.has_value())
        return false;
    const LinearLayout &t2o = plan.shared->tensorToOffset;
    LinearLayout::BasesT bases = t2o.getBases();
    for (const auto &dim : bases.keys()) {
        auto &vecs = bases.at(dim);
        for (auto &basis : vecs) {
            bool nonzero = false;
            for (int32_t coord : basis)
                nonzero = nonzero || coord != 0;
            if (!nonzero)
                continue;
            for (auto &coord : basis)
                coord = 0;
            plan.shared->tensorToOffset =
                LinearLayout(std::move(bases), t2o.getOutDims(),
                             /*requireSurjective=*/false);
            return true;
        }
    }
    return false;
}

} // namespace check
} // namespace ll
