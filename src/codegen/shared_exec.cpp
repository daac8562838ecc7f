#include "codegen/shared_exec.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "layout/dims.h"
#include "support/bits.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ll {
namespace codegen {

namespace {

using dims::kLane;
using dims::kReg;
using dims::kWarp;

/** The failpoint decisions for one executor run, each site evaluated
 *  exactly once per call so limited activations ("site:1") fail one
 *  execution and let the demoted re-plan's execution succeed. */
struct SharedExecFaults
{
    bool alloc;
    bool window;
    bool bankBudget;

    SharedExecFaults()
        : alloc(LL_FAILPOINT("exec.shared.alloc")),
          window(LL_FAILPOINT("exec.shared.window")),
          bankBudget(LL_FAILPOINT("exec.shared.bank-budget"))
    {
    }
};

/**
 * Mask a warp access's storage offsets down to the current window:
 * offsets inside [pass * window, pass * window + window) become
 * window-local, the rest go inactive. Returns the number of active
 * lanes; 0 means the access is not issued at all.
 */
int64_t
maskToWindow(std::vector<int64_t> &offsets, int64_t pass, int64_t window)
{
    const int64_t lo = pass * window;
    int64_t active = 0;
    for (int64_t &o : offsets) {
        if (o >= lo && o < lo + window) {
            o -= lo;
            ++active;
        } else {
            o = sim::kInactiveLane;
        }
    }
    return active;
}

/** Worst-case wavefronts a pass of `instructions` accesses can cost:
 *  every lane in its own serialized wavefront, times the bank words a
 *  single vectorized access spans. Exceeding it means the simulator or
 *  the swizzle bookkeeping is corrupt. */
int64_t
bankBudget(int64_t instructions, int lanes, int vecBytes,
           const sim::GpuSpec &spec)
{
    const int64_t wordsPerLane = std::max<int64_t>(
        1, (vecBytes + spec.bankWidthBytes - 1) / spec.bankWidthBytes);
    return instructions * std::max(lanes, 1) * wordsPerLane;
}

/** The image of every input index under the F2-linear map with these
 *  columns, by one prefix-XOR sweep: clearing the lowest set bit of
 *  `in` leaves an index already computed, and the difference is one
 *  column. */
std::vector<uint64_t>
xorSweep(const std::vector<uint64_t> &cols)
{
    std::vector<uint64_t> image(size_t(1) << cols.size());
    image[0] = 0;
    for (size_t in = 1; in < image.size(); ++in)
        image[in] = image[in & (in - 1)] ^
                    cols[static_cast<size_t>(std::countr_zero(in))];
    return image;
}

/**
 * How one side of a round trip moves its registers, flat. offsets[in]
 * is the linear shared offset of flat input `in` (the composed map
 * tensorToOffset . dist is linear, so the table is one prefix-XOR
 * sweep). reps is registerGroupReps(swz, dist), the one definition of a
 * register group; group g holds members[start[g] .. start[g + 1]), the
 * registers sharing reps[g]'s vec window, in register order. By
 * linearity two registers share a vec window in one thread iff they
 * share it in every thread, so the warp access (reps[g], warp) moves
 * exactly group g's registers in every lane, each through slot
 * offsets[in] & vecMask of its lane's window — no per-lane lookup.
 */
struct RegisterGroups
{
    RegisterGroups(const SwizzledShared &swz, const LinearLayout &dist)
        : regLog(dist.getInDimSizeLog2(kReg)),
          laneLog(dist.getInDimSizeLog2(kLane)),
          reps(registerGroupReps(swz, dist))
    {
        std::vector<uint64_t> cols(
            static_cast<size_t>(dist.getTotalInDimSizeLog2()));
        for (size_t i = 0; i < cols.size(); ++i) {
            cols[i] = swz.tensorToOffset.applyFlat(
                dist.applyFlat(uint64_t(1) << i));
        }
        offsets = xorSweep(cols);
        const uint64_t keep = ~(static_cast<uint64_t>(swz.vecElems()) - 1);
        std::unordered_map<uint64_t, int32_t> groupOfWindow;
        for (size_t g = 0; g < reps.size(); ++g) {
            groupOfWindow.emplace(
                offsets[static_cast<size_t>(reps[g])] & keep,
                static_cast<int32_t>(g));
        }
        const size_t regs = size_t(1) << regLog;
        std::vector<int32_t> groupOf(regs);
        for (size_t reg = 0; reg < regs; ++reg)
            groupOf[reg] = groupOfWindow.at(offsets[reg] & keep);
        start.assign(reps.size() + 1, 0);
        for (int32_t g : groupOf)
            ++start[static_cast<size_t>(g) + 1];
        for (size_t g = 0; g < reps.size(); ++g)
            start[g + 1] += start[g];
        members.resize(regs);
        std::vector<size_t> fill(start.begin(), start.end() - 1);
        for (size_t reg = 0; reg < regs; ++reg)
            members[fill[static_cast<size_t>(groupOf[reg])]++] =
                static_cast<uint32_t>(reg);
    }

    /** Group g's registers in thread (warp, lane), as flat inputs. */
    template <typename Fn>
    void
    forEachMember(size_t g, int warp, size_t lane, Fn &&fn) const
    {
        const uint64_t thread =
            ((static_cast<uint64_t>(warp) << laneLog) | lane) << regLog;
        for (size_t i = start[g]; i < start[g + 1]; ++i)
            fn(thread | members[i]);
    }

    int regLog;
    int laneLog;
    std::vector<int32_t> reps;
    std::vector<uint64_t> offsets;
    std::vector<size_t> start;
    std::vector<uint32_t> members;
};

} // namespace

std::vector<uint64_t>
flatImage(const LinearLayout &layout)
{
    std::vector<uint64_t> cols(
        static_cast<size_t>(layout.getTotalInDimSizeLog2()));
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = layout.applyFlat(uint64_t(1) << i);
    return xorSweep(cols);
}

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

Result<SharedRoundTrip, ExecDiagnostic>
runSharedRoundTrip(const SwizzledShared &swz, const LinearLayout &srcIn,
                   const LinearLayout &dst,
                   const std::vector<uint64_t> &srcFile, int elemBytes,
                   const sim::GpuSpec &spec)
{
  trace::Span span("exec.shared.round-trip", "exec");
  static auto &runs = metrics::counter("exec.shared.runs");
  runs.inc();
  int64_t lanesMasked = 0;
  try {
    SharedExecFaults faults;
    LinearLayout src = srcIn.transposeOuts(swz.memLayout.getOutDimNames());
    LinearLayout dstAligned =
        dst.transposeOuts(swz.memLayout.getOutDimNames());
    if (LL_FAILPOINT("exec.shared.file-size") ||
        srcFile.size() != static_cast<size_t>(src.getTotalInDimSize())) {
        return makeExecDiag(
            ExecError::PlanShapeMismatch, "exec.shared.file-size",
            "source register file holds " +
                std::to_string(srcFile.size()) + " values; the layout "
                "spans " +
                std::to_string(src.getTotalInDimSize()));
    }

    SharedRoundTrip result;
    const int64_t numElems = src.getTotalOutDimSize();
    const int64_t storage = swz.storageElems(numElems);
    const int64_t alloc = swz.allocElems(numElems);
    const int64_t passes = swz.passesFor(numElems);
    if (faults.alloc || !sim::SharedMemory::fits(spec, elemBytes, alloc)) {
        return makeExecDiag(
            ExecError::SharedWindowOverflow, "exec.shared.alloc",
            "allocation of " + std::to_string(alloc * elemBytes) +
                " bytes exceeds the CTA budget of " +
                std::to_string(spec.sharedMemPerCta));
    }
    const int vec = swz.vecElems();
    const auto vecSz = static_cast<size_t>(vec);

    const int srcWarps =
        src.hasInDim(kWarp) ? src.getInDimSize(kWarp) : 1;
    const int dstWarps =
        dstAligned.hasInDim(kWarp) ? dstAligned.getInDimSize(kWarp) : 1;
    const auto srcLanes = size_t(1) << src.getInDimSizeLog2(kLane);
    const auto dstLanes = size_t(1) << dstAligned.getInDimSizeLog2(kLane);
    result.dstFile.assign(
        static_cast<size_t>(dstAligned.getTotalInDimSize()),
        sim::SharedMemory::kPoison);
    // Built once; every pass reuses them.
    const RegisterGroups stores(swz, src);
    const RegisterGroups loads(swz, dstAligned);
    const uint64_t vecMask = static_cast<uint64_t>(vec) - 1;
    auto slot = [&](const RegisterGroups &side, size_t lane, uint64_t in) {
        return lane * vecSz + static_cast<size_t>(side.offsets[in] & vecMask);
    };

    const WarpAccessTable storeTable(swz, src);
    const WarpAccessTable loadTable(swz, dstAligned);
    // When a side's lanes fit one window (WarpAccessTable::lanesFit),
    // each of its accesses lies wholly in pass base >> log2(alloc) and
    // every other pass would mask all its lanes and skip it, so it is
    // visited only in that pass; the lanes those skipped visits would
    // have masked are added after the loop. An access whose pass lies
    // past the last is out of storage and keeps pass 0, where its store
    // fails the bounds check exactly as before.
    const int windowLog = std::countr_zero(static_cast<uint64_t>(alloc));
    const bool storesHomed = passes > 1 && storeTable.lanesFit(alloc);
    const bool loadsHomed = passes > 1 && loadTable.lanesFit(alloc);
    auto skip = [&](bool homed, const WarpAccessTable &table, int32_t rep,
                    int warp, int64_t pass) {
        if (!homed)
            return false;
        const auto home =
            static_cast<int64_t>(table.base(rep, warp) >> windowLog);
        return (home < passes ? home : 0) != pass;
    };
    // Per-access buffers, reused by every access of every pass.
    std::vector<int64_t> offsets;
    std::vector<uint64_t> values, loaded;
    offsets.reserve(std::max(srcLanes, dstLanes));
    for (int64_t pass = 0; pass < passes; ++pass) {
        sim::SharedMemory smem(spec, elemBytes, alloc);

        // --- store phase -----------------------------------------------
        for (int warp = 0; warp < srcWarps; ++warp) {
            for (size_t g = 0; g < stores.reps.size(); ++g) {
                if (skip(storesHomed, storeTable, stores.reps[g], warp,
                         pass))
                    continue;
                offsets.clear();
                storeTable.offsetsInto(stores.reps[g], warp, offsets);
                values.assign(offsets.size() * vecSz,
                              sim::SharedMemory::kPoison);
                for (size_t lane = 0; lane < offsets.size(); ++lane) {
                    if (faults.window || offsets[lane] < 0 ||
                        offsets[lane] + vec > storage) {
                        return makeExecDiag(
                            ExecError::SharedWindowOverflow,
                            "exec.shared.window",
                            "store offset " +
                                std::to_string(offsets[lane]) +
                                " outside storage of " +
                                std::to_string(storage));
                    }
                    stores.forEachMember(g, warp, lane, [&](uint64_t in) {
                        values[slot(stores, lane, in)] = srcFile[in];
                    });
                }
                const int64_t active = maskToWindow(offsets, pass, alloc);
                lanesMasked +=
                    static_cast<int64_t>(offsets.size()) - active;
                if (active == 0)
                    continue;
                smem.warpStore(offsets, vec, values, result.storeStats);
            }
        }

        // --- load phase ------------------------------------------------
        for (int warp = 0; warp < dstWarps; ++warp) {
            for (size_t g = 0; g < loads.reps.size(); ++g) {
                if (skip(loadsHomed, loadTable, loads.reps[g], warp, pass))
                    continue;
                offsets.clear();
                loadTable.offsetsInto(loads.reps[g], warp, offsets);
                const int64_t active = maskToWindow(offsets, pass, alloc);
                lanesMasked +=
                    static_cast<int64_t>(offsets.size()) - active;
                if (active == 0)
                    continue;
                smem.warpLoad(offsets, vec, loaded, result.loadStats);
                for (size_t lane = 0; lane < offsets.size(); ++lane) {
                    if (offsets[lane] == sim::kInactiveLane)
                        continue;
                    loads.forEachMember(g, warp, lane, [&](uint64_t in) {
                        result.dstFile[in] = loaded[slot(loads, lane, in)];
                    });
                }
            }
        }
    }

    if (storesHomed) {
        lanesMasked += (passes - 1) * srcWarps *
                       static_cast<int64_t>(stores.reps.size() * srcLanes);
    }
    if (loadsHomed) {
        lanesMasked += (passes - 1) * dstWarps *
                       static_cast<int64_t>(loads.reps.size() * dstLanes);
    }
    const int64_t instructions = result.storeStats.instructions +
                                 result.loadStats.instructions;
    const int64_t measured =
        result.storeStats.wavefronts + result.loadStats.wavefronts;
    const int lanes = static_cast<int>(std::max(srcLanes, dstLanes));
    if (faults.bankBudget ||
        measured >
            bankBudget(instructions, lanes, vec * elemBytes, spec)) {
        return makeExecDiag(
            ExecError::BankBudgetExceeded, "exec.shared.bank-budget",
            std::to_string(measured) +
                " wavefronts exceed the full-serialization budget");
    }
    static auto &passesRun = metrics::counter("exec.shared.passes");
    passesRun.add(passes);
    static auto &wavefronts = metrics::counter("exec.shared.wavefronts");
    wavefronts.add(measured);
    static auto &masked = metrics::counter("exec.shared.lanes_masked");
    masked.add(lanesMasked);
    static auto &bytes = metrics::counter("exec.shared.bytes_moved");
    bytes.add(2 * numElems * elemBytes);
    if (span.active()) {
        span.arg("passes", passes);
        span.arg("alloc_bytes", alloc * elemBytes);
        span.arg("wavefronts", measured);
        span.arg("lanes_masked", lanesMasked);
        span.arg("bytes_moved", 2 * numElems * elemBytes);
    }
    return result;
  } catch (const std::exception &e) {
    return makeExecDiag(ExecError::ExecInternalError, "exec.shared",
                        e.what());
  }
}

Result<SharedRoundTrip, ExecDiagnostic>
executeSharedConversion(const SwizzledShared &swz, const LinearLayout &srcIn,
                        const LinearLayout &dstIn, int elemBytes,
                        const sim::GpuSpec &spec)
{
    LinearLayout src = canonicalIns(srcIn);
    LinearLayout dst =
        canonicalIns(dstIn.transposeOuts(srcIn.getOutDimNames()));
    auto rt = runSharedRoundTrip(swz, src, dst, flatImage(src), elemBytes,
                                 spec);
    if (!rt)
        return rt;
    // Every register carried its tensor coordinate, so each dst register
    // must hold its own; an aliased plan loads poison or another element.
    const std::vector<uint64_t> expect = flatImage(dst);
    for (size_t j = 0; j < expect.size(); ++j) {
        const uint64_t got = rt->dstFile[j];
        if (got == expect[j])
            continue;
        return makeExecDiag(
            ExecError::DataMismatch, "exec.shared.verify",
            "dst register " + std::to_string(j) + " expected element " +
                std::to_string(expect[j]) + ", got " +
                (got == sim::SharedMemory::kPoison
                     ? std::string("poison")
                     : "element " + std::to_string(got)));
    }
    return rt;
}

} // namespace codegen
} // namespace ll
