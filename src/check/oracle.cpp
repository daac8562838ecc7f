#include "check/oracle.h"

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "check/layout_reference.h"
#include "check/tiles_reference.h"
#include "check/wavefront_reference.h"
#include "codegen/shared_exec.h"
#include "codegen/swizzle.h"
#include "f2/subspace.h"
#include "layout/dims.h"
#include "support/diagnostics.h"
#include "support/failpoint.h"

namespace ll {
namespace check {

namespace {

using codegen::canonicalIns;
using dims::kLane;
using dims::kReg;
using dims::kWarp;

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
    const auto &n = f2Compared;
    const int64_t compared = n.matrix + n.subspace + n.applyFlat +
                             n.wavefront + n.tile + n.layout;
    if (compared > 0) {
        os << " f2(matrix " << n.matrix << ", subspace " << n.subspace
           << ", applyFlat " << n.applyFlat << ", wavefront "
           << n.wavefront << ", tile " << n.tile << ", layout "
           << n.layout << ")";
        if (f2Divergences > 0)
            os << " F2-DIVERGENCE";
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
        // Lemma 9.4 applies only without padding, and only where each
        // side's lanes fit the window (always so unwindowed): every
        // access then lies in one pass and is an XOR translate of
        // access (0, 0), as enumerateWavefronts relies on. Lanes that
        // straddle a window split accesses across passes, breaking the
        // per-access uniformity the audit multiplies by. The plan is
        // priced by enumerated totals; the analytic count is this
        // audit's own.
        const codegen::SwizzledShared &swz = *plan.shared;
        const auto lanesFit = [&](const LinearLayout &side) {
            return codegen::WarpAccessTable(swz, side).lanesFit(
                swz.allocElems(src.getTotalOutDimSize()));
        };
        if (plan.kind != codegen::ConversionKind::SharedPadded &&
            lanesFit(src) && lanesFit(dst)) {
            report.audited = true;
            report.analyticStorePerAccess =
                codegen::analyticWavefronts(swz, srcIn, elemBytes, spec);
            report.analyticLoadPerAccess =
                codegen::analyticWavefronts(swz, dstIn, elemBytes, spec);
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

OracleReport
diffF2(const ConversionCase &c)
{
    OracleReport report;
    auto &n = report.f2Compared;
    std::string where; // the input under comparison, named in detail
    auto same = [&](int64_t &count, bool equal, const char *what) {
        ++count;
        if (!equal && report.f2Divergences++ == 0)
            report.detail =
                where + ": " + what + " diverged from its reference";
    };
    const auto spec = c.spec();
    failpoint::ScopedSet guard(c.failpoints);
    auto plan =
        codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
    const codegen::SwizzledShared *swz = nullptr;
    if (plan.ok()) {
        report.kind = plan->kind;
        if (plan->shared.has_value())
            swz = &*plan->shared;
    }

    std::vector<std::pair<std::string, f2::F2Matrix>> mats = {
        {"src", c.src.toF2Matrix()},
        {"dst", c.dst.toF2Matrix()},
        {"conversion map", c.dst.invertAndCompose(c.src).toF2Matrix()}};
    if (swz)
        mats.emplace_back("memLayout", swz->memLayout.toF2Matrix());
    for (const auto &[name, m] : mats) {
        where = name + " matrix";
        const int rows = m.numRows();
        const int cols = m.numCols();
        for (int j = 0; j < cols; ++j) {
            for (uint64_t x : {uint64_t(1) << j, (uint64_t(2) << j) - 1})
                same(n.matrix, m.apply(x) == m.apply_reference(x),
                     "F2Matrix::apply");
        }
        const f2::F2Matrix t = m.transpose();
        same(n.matrix, t == m.transpose_reference(),
             "F2Matrix::transpose");
        same(n.matrix, m.multiply(t) == m.multiply_reference(t),
             "F2Matrix::multiply");
        same(n.matrix, m.rank() == m.rank_reference(), "F2Matrix::rank");
        same(n.matrix, m.kernelBasis() == m.kernelBasis_reference(),
             "F2Matrix::kernelBasis");
        // Unit right-hand sides hit both consistent and inconsistent
        // systems; the columns are always consistent.
        std::vector<uint64_t> rhs = m.columns();
        for (int i = 0; i < rows; ++i)
            rhs.push_back(uint64_t(1) << i);
        if (cols < 64) { // solve augments one column
            for (uint64_t b : rhs)
                same(n.matrix, m.solve(b) == m.solve_reference(b),
                     "F2Matrix::solve");
        }
        if (rows + cols <= 64 && m.isSurjective())
            same(n.matrix, m.rightInverse() == m.rightInverse_reference(),
                 "F2Matrix::rightInverse");

        // The subspace layer on the matrix's column set.
        const std::vector<uint64_t> &vecs = m.columns();
        f2::EchelonBasis fast;
        f2::EchelonBasisReference ref;
        for (uint64_t v : vecs)
            same(n.subspace, fast.insert(v) == ref.insert(v),
                 "EchelonBasis::insert");
        same(n.subspace, fast.vectors() == ref.vectors(),
             "EchelonBasis::vectors");
        for (uint64_t e : rhs) {
            same(n.subspace,
                 fast.reduce(e) == ref.reduce(e) &&
                     fast.contains(e) == ref.contains(e),
                 "EchelonBasis::reduce");
            same(n.subspace,
                 f2::spanContains(vecs, e) ==
                     f2::spanContains_reference(vecs, e),
                 "spanContains");
        }
        const auto basis = f2::reduceToBasis(vecs);
        same(n.subspace, basis == f2::reduceToBasis_reference(vecs),
             "reduceToBasis");
        same(n.subspace,
             f2::rankOfVectors(vecs) == f2::rankOfVectors_reference(vecs),
             "rankOfVectors");
        same(n.subspace,
             f2::complementBasis(vecs, rows) ==
                 f2::complementBasis_reference(vecs, rows),
             "complementBasis");
        same(n.subspace,
             f2::completeBasis(basis, rows) ==
                 f2::completeBasis_reference(basis, rows),
             "completeBasis");
        if (rows <= 32) {
            const auto mid = vecs.begin() + cols / 2;
            const std::vector<uint64_t> u(vecs.begin(), mid);
            const std::vector<uint64_t> v(mid, vecs.end());
            same(n.subspace,
                 f2::intersectSpans(u, v, rows) ==
                     f2::intersectSpans_reference(u, v, rows),
                 "intersectSpans");
        }
        if (basis.size() <= 16)
            same(n.subspace,
                 f2::enumerateSpan(basis) ==
                     f2::enumerateSpan_reference(basis),
                 "enumerateSpan");
    }

    for (const LinearLayout *layout : {&c.src, &c.dst}) {
        const std::string side = layout == &c.src ? "src" : "dst";
        const std::vector<uint64_t> images =
            reference::applyFlatAll(*layout);
        for (uint64_t i = 0; i < images.size(); ++i) {
            const bool equal = layout->applyFlat(i) == images[i];
            if (!equal)
                where = side + " layout, flat index " + std::to_string(i);
            same(n.applyFlat, equal, "LinearLayout::applyFlat");
        }
        if (!swz)
            continue;
        where = side + " layout";
        same(n.wavefront,
             codegen::enumerateWavefronts(*swz, *layout, c.elemBytes,
                                          spec) ==
                 reference::enumerateWavefronts(
                     *swz, *layout, c.elemBytes, spec),
             "enumerateWavefronts");
        // The ldmatrix/stmatrix tile test on the side's columns against
        // tile division of the composed layout, at every width the tile
        // exists for.
        const codegen::OffsetColumns columns(*swz, *layout);
        const LinearLayout cvt = layout->compose(
            swz->tensorToOffset.transposeIns(layout->getOutDimNames()));
        for (int elemBytes : {1, 2, 4}) {
            const bool found =
                reference::matchesLdmatrixTile(cvt, elemBytes);
            n.tileMatched += found ? 1 : 0;
            same(n.tile,
                 codegen::matchesMatrixTile(columns, elemBytes) == found,
                 "matchesMatrixTile");
        }
        // Every warp access of the pass, priced on both counters.
        codegen::WarpAccessTable table(*swz, columns);
        const int accessBytes = swz->vecElems() * c.elemBytes;
        const auto reps = codegen::registerGroupReps(*swz, columns);
        std::vector<int64_t> offsets, addrs;
        for (int32_t warp = 0; warp < 1 << columns.warpLog; ++warp) {
            for (int32_t rep : reps) {
                offsets.clear();
                table.offsetsInto(rep, warp, offsets);
                addrs.clear();
                for (int64_t o : offsets)
                    addrs.push_back(o * c.elemBytes);
                same(n.wavefront,
                     sim::SharedMemory::countWavefronts(spec, addrs,
                                                        accessBytes) ==
                         sim::SharedMemory::countWavefronts_reference(
                             spec, addrs, accessBytes),
                     "SharedMemory::countWavefronts");
            }
        }
    }

    // The layout algebra on the case's own layouts.
    std::vector<LinearLayout> layouts = {c.src, c.dst};
    if (swz)
        layouts.push_back(swz->memLayout);
    where = "case layouts";
    diffLayoutOps(layouts, [&](bool equal, const char *what) {
        same(n.layout, equal, what);
    });
    return report;
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
