/**
 * @file
 * Counting models of GPU memory systems.
 *
 * SharedMemory models a banked scratchpad: a warp access is split into
 * 128-byte transactions, and within each transaction lanes that touch
 * different words of the same bank serialize into extra wavefronts —
 * exactly the quantity Lemma 9.4 of the paper reasons about. The class
 * both *carries data* (so conversion plans can be executed and checked
 * for correctness) and *counts wavefronts* (so benchmarks can report
 * costs).
 *
 * GlobalMemory models DRAM coalescing: a warp access costs one 32-byte
 * sector per distinct sector touched, which is what the Table 3
 * vectorization experiments measure.
 */

#ifndef LL_SIM_MEMORY_SIM_H
#define LL_SIM_MEMORY_SIM_H

#include <cstdint>
#include <vector>

#include "sim/gpu_spec.h"

namespace ll {
namespace sim {

/** Aggregate access counters. */
struct AccessStats
{
    int64_t instructions = 0; ///< warp-wide memory instructions issued
    int64_t transactions = 0; ///< 128-byte transaction slots
    int64_t wavefronts = 0;   ///< serialized wavefronts (>= transactions)

    AccessStats &
    operator+=(const AccessStats &o)
    {
        instructions += o.instructions;
        transactions += o.transactions;
        wavefronts += o.wavefronts;
        return *this;
    }
};

/** Inactive-lane marker for warp-wide accesses. */
inline constexpr int64_t kInactiveLane = -1;

class SharedMemory
{
  public:
    /**
     * Every cell starts holding kPoison; a load that returns it means
     * the cell was never stored — how the differential oracle detects
     * address aliasing (two elements swizzled to one offset leave some
     * other offset unwritten).
     */
    static constexpr uint64_t kPoison = ~uint64_t(0);

    SharedMemory(const GpuSpec &spec, int elemBytes, int64_t numElems);

    int64_t numElems() const { return static_cast<int64_t>(cells_.size()); }
    int elemBytes() const { return elemBytes_; }

    /**
     * One warp-wide vectorized store: lane l writes the vecElems values
     * values[l * vecElems ..] at consecutive element offsets starting at
     * elemOffsets[l]. Offsets must be vecElems-aligned; inactive lanes'
     * values are ignored.
     */
    void warpStore(const std::vector<int64_t> &elemOffsets, int vecElems,
                   const std::vector<uint64_t> &values, AccessStats &stats);

    /**
     * One warp-wide vectorized load into `out`, resized to
     * elemOffsets.size() * vecElems with lane l's elements at
     * out[l * vecElems ..]; inactive lanes' slots hold kPoison. Reusing
     * `out` across accesses keeps the load allocation-free.
     */
    void warpLoad(const std::vector<int64_t> &elemOffsets, int vecElems,
                  std::vector<uint64_t> &out, AccessStats &stats);

    uint64_t peek(int64_t elemOffset) const;
    void poke(int64_t elemOffset, uint64_t value);

    /**
     * Count the wavefronts of one warp access where lane l touches
     * accessBytes consecutive bytes starting at byteAddrs[l]
     * (kInactiveLane = idle). Pure counting; no data movement.
     */
    static int64_t countWavefronts(const GpuSpec &spec,
                                   const std::vector<int64_t> &byteAddrs,
                                   int accessBytes);

    /**
     * The original node-based (map of sets) wavefront counter, kept as
     * the differential oracle for the sort-based fast path above.
     */
    static int64_t
    countWavefronts_reference(const GpuSpec &spec,
                              const std::vector<int64_t> &byteAddrs,
                              int accessBytes);

    /** Transaction count for the same access (the no-conflict floor). */
    static int64_t countTransactions(const GpuSpec &spec,
                                     const std::vector<int64_t> &byteAddrs,
                                     int accessBytes);

    /**
     * Would an allocation of numElems elements fit one CTA's shared
     * budget? The constructor enforces this; planners (notably the
     * padded fallback rung, whose padding inflates the allocation) ask
     * first instead of finding out by UserError.
     */
    static bool fits(const GpuSpec &spec, int elemBytes,
                     int64_t numElems);

  private:
    void account(const std::vector<int64_t> &elemOffsets, int vecElems,
                 AccessStats &stats);

    const GpuSpec &spec_;
    int elemBytes_;
    std::vector<uint64_t> cells_;
    std::vector<int64_t> byteAddrs_; ///< account()'s reused scratch
};

class GlobalMemory
{
  public:
    explicit GlobalMemory(const GpuSpec &spec) : spec_(spec) {}

    /**
     * Number of 32-byte sectors touched by a warp access where lane l
     * reads accessBytes at byteAddrs[l].
     */
    int64_t countSectors(const std::vector<int64_t> &byteAddrs,
                         int accessBytes) const;

  private:
    const GpuSpec &spec_;
};

} // namespace sim
} // namespace ll

#endif // LL_SIM_MEMORY_SIM_H
