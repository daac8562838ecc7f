#include "sim/memory_sim.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "support/diagnostics.h"

namespace ll {
namespace sim {

SharedMemory::SharedMemory(const GpuSpec &spec, int elemBytes,
                           int64_t numElems)
    : spec_(spec), elemBytes_(elemBytes),
      cells_(static_cast<size_t>(numElems), kPoison)
{
    llUserCheck(elemBytes >= 1 && elemBytes <= 8,
                "element width must be 1..8 bytes");
    llUserCheck(fits(spec, elemBytes, numElems),
                "shared allocation of " << numElems * elemBytes
                    << " bytes exceeds the " << spec.sharedMemPerCta
                    << "-byte CTA limit of " << spec.name);
}

bool
SharedMemory::fits(const GpuSpec &spec, int elemBytes, int64_t numElems)
{
    return numElems * elemBytes <= spec.sharedMemPerCta;
}

int64_t
SharedMemory::countWavefronts(const GpuSpec &spec,
                              const std::vector<int64_t> &byteAddrs,
                              int accessBytes)
{
    // Same model as the reference below, but flat: a word's bank is a
    // function of the word (w % numBanks), so the per-bank sets of the
    // reference are just the residue classes of the distinct word list.
    // This counter runs millions of times per planning sweep and smoke
    // run, so it allocates nothing per call (the buffers are per
    // thread), finds word and bank by shift and mask (every modeled
    // bank geometry is a power of two, which the planner's swizzle
    // construction requires as well), and settles the common
    // conflict-free group in one pass: bankWord records the first word
    // seen per bank, and only a group where some bank sees a second
    // distinct word is sorted and counted per bank. Between calls
    // perBank is all zeros and bankWord all -1.
    llAssert(std::has_single_bit(static_cast<unsigned>(spec.numBanks)) &&
                 std::has_single_bit(
                     static_cast<unsigned>(spec.bankWidthBytes)),
             "bank geometry of " << spec.name
                                 << " is not a power of two");
    const int wordShift =
        std::countr_zero(static_cast<unsigned>(spec.bankWidthBytes));
    const int64_t bankMask = spec.numBanks - 1;
    const int lanesPerGroup =
        std::max(1, spec.wavefrontBytes / std::max(accessBytes, 1));
    thread_local std::vector<int64_t> words;
    thread_local std::vector<int32_t> perBank;
    thread_local std::vector<int64_t> bankWord;
    const auto numBanks = static_cast<size_t>(spec.numBanks);
    if (perBank.size() < numBanks) {
        perBank.resize(numBanks, 0);
        bankWord.resize(numBanks, -1);
    }
    auto bankOf = [&](int64_t w) { return static_cast<size_t>(w & bankMask); };
    int64_t wavefronts = 0;
    for (size_t base = 0; base < byteAddrs.size();
         base += static_cast<size_t>(lanesPerGroup)) {
        words.clear();
        bool conflict = false;
        for (size_t l = base;
             l < std::min(byteAddrs.size(),
                          base + static_cast<size_t>(lanesPerGroup));
             ++l) {
            if (byteAddrs[l] == kInactiveLane)
                continue;
            int64_t first = byteAddrs[l] >> wordShift;
            int64_t last = (byteAddrs[l] + accessBytes - 1) >> wordShift;
            for (int64_t w = first; w <= last; ++w) {
                words.push_back(w);
                int64_t &owner = bankWord[bankOf(w)];
                if (owner < 0)
                    owner = w;
                else if (owner != w)
                    conflict = true;
            }
        }
        if (words.empty())
            continue;
        for (int64_t w : words)
            bankWord[bankOf(w)] = -1;
        if (!conflict) {
            ++wavefronts; // every bank serves one distinct word
            continue;
        }
        std::sort(words.begin(), words.end());
        words.erase(std::unique(words.begin(), words.end()), words.end());
        int64_t worst = 1;
        for (int64_t w : words)
            worst = std::max(worst, static_cast<int64_t>(++perBank[bankOf(w)]));
        for (int64_t w : words)
            perBank[bankOf(w)] = 0;
        wavefronts += worst;
    }
    return wavefronts;
}

int64_t
SharedMemory::countWavefronts_reference(const GpuSpec &spec,
                                        const std::vector<int64_t> &byteAddrs,
                                        int accessBytes)
{
    // A warp request is issued in groups of lanes such that each group
    // moves at most wavefrontBytes; within a group, lanes touching
    // different words of the same bank serialize.
    const int wordBytes = spec.bankWidthBytes;
    const int lanesPerGroup =
        std::max(1, spec.wavefrontBytes / std::max(accessBytes, 1));
    int64_t wavefronts = 0;
    for (size_t base = 0; base < byteAddrs.size();
         base += static_cast<size_t>(lanesPerGroup)) {
        // bank -> set of distinct word addresses requested in this group
        std::map<int, std::set<int64_t>> wordsPerBank;
        bool anyActive = false;
        for (size_t l = base;
             l < std::min(byteAddrs.size(),
                          base + static_cast<size_t>(lanesPerGroup));
             ++l) {
            if (byteAddrs[l] == kInactiveLane)
                continue;
            anyActive = true;
            int64_t first = byteAddrs[l] / wordBytes;
            int64_t last = (byteAddrs[l] + accessBytes - 1) / wordBytes;
            for (int64_t w = first; w <= last; ++w)
                wordsPerBank[static_cast<int>(w % spec.numBanks)].insert(w);
        }
        if (!anyActive)
            continue;
        size_t worst = 1;
        for (const auto &[bank, words] : wordsPerBank) {
            (void)bank;
            worst = std::max(worst, words.size());
        }
        wavefronts += static_cast<int64_t>(worst);
    }
    return wavefronts;
}

int64_t
SharedMemory::countTransactions(const GpuSpec &spec,
                                const std::vector<int64_t> &byteAddrs,
                                int accessBytes)
{
    const int lanesPerGroup =
        std::max(1, spec.wavefrontBytes / std::max(accessBytes, 1));
    int64_t transactions = 0;
    for (size_t base = 0; base < byteAddrs.size();
         base += static_cast<size_t>(lanesPerGroup)) {
        for (size_t l = base;
             l < std::min(byteAddrs.size(),
                          base + static_cast<size_t>(lanesPerGroup));
             ++l) {
            if (byteAddrs[l] != kInactiveLane) {
                ++transactions;
                break;
            }
        }
    }
    return transactions;
}

void
SharedMemory::account(const std::vector<int64_t> &elemOffsets, int vecElems,
                      AccessStats &stats)
{
    byteAddrs_.clear();
    for (int64_t off : elemOffsets) {
        byteAddrs_.push_back(off == kInactiveLane ? kInactiveLane
                                                  : off * elemBytes_);
    }
    stats.instructions += 1;
    stats.transactions +=
        countTransactions(spec_, byteAddrs_, vecElems * elemBytes_);
    stats.wavefronts +=
        countWavefronts(spec_, byteAddrs_, vecElems * elemBytes_);
}

void
SharedMemory::warpStore(const std::vector<int64_t> &elemOffsets,
                        int vecElems, const std::vector<uint64_t> &values,
                        AccessStats &stats)
{
    const auto vec = static_cast<size_t>(vecElems);
    llAssert(values.size() == elemOffsets.size() * vec,
             "store needs vecElems values per lane");
    account(elemOffsets, vecElems, stats);
    for (size_t l = 0; l < elemOffsets.size(); ++l) {
        if (elemOffsets[l] == kInactiveLane)
            continue;
        for (size_t v = 0; v < vec; ++v)
            poke(elemOffsets[l] + static_cast<int64_t>(v),
                 values[l * vec + v]);
    }
}

void
SharedMemory::warpLoad(const std::vector<int64_t> &elemOffsets, int vecElems,
                       std::vector<uint64_t> &out, AccessStats &stats)
{
    const auto vec = static_cast<size_t>(vecElems);
    account(elemOffsets, vecElems, stats);
    out.assign(elemOffsets.size() * vec, kPoison);
    for (size_t l = 0; l < elemOffsets.size(); ++l) {
        if (elemOffsets[l] == kInactiveLane)
            continue;
        for (size_t v = 0; v < vec; ++v)
            out[l * vec + v] =
                peek(elemOffsets[l] + static_cast<int64_t>(v));
    }
}

uint64_t
SharedMemory::peek(int64_t elemOffset) const
{
    llAssert(elemOffset >= 0 && elemOffset < numElems(),
             "shared memory offset " << elemOffset << " out of range");
    return cells_[static_cast<size_t>(elemOffset)];
}

void
SharedMemory::poke(int64_t elemOffset, uint64_t value)
{
    llAssert(elemOffset >= 0 && elemOffset < numElems(),
             "shared memory offset " << elemOffset << " out of range");
    cells_[static_cast<size_t>(elemOffset)] = value;
}

int64_t
GlobalMemory::countSectors(const std::vector<int64_t> &byteAddrs,
                           int accessBytes) const
{
    (void)spec_;
    constexpr int64_t kSectorBytes = 32;
    std::set<int64_t> sectors;
    for (int64_t addr : byteAddrs) {
        if (addr == kInactiveLane)
            continue;
        int64_t first = addr / kSectorBytes;
        int64_t last = (addr + accessBytes - 1) / kSectorBytes;
        for (int64_t s = first; s <= last; ++s)
            sectors.insert(s);
    }
    return static_cast<int64_t>(sectors.size());
}

} // namespace sim
} // namespace ll
