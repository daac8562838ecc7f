/**
 * @file
 * Word-at-a-time 64-bit hashing for in-memory keys.
 *
 * The layout interner's buckets (LinearLayout::structuralHash) and the
 * plan cache's spec id (GpuSpec::fingerprint) hash their fields one
 * 64-bit word per step: an integer is one word, a string is its bytes
 * packed eight to a word followed by its length (so "ab","c" and
 * "a","bc" differ). Each step is a bijection of the state for a fixed
 * word, so two inputs whose word sequences first differ at some word
 * have different states right after it; value() finalizes so that the
 * low bits, which pick shards and buckets, depend on every input bit.
 *
 * The values depend on the host's byte order and on this file: they
 * key in-memory tables only, and nothing may persist them.
 */

#ifndef LL_SUPPORT_HASH_H
#define LL_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ll {

class WordHash
{
  public:
    /** Mix one 64-bit word. */
    WordHash &
    word(uint64_t w)
    {
        h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ull;
        h_ ^= h_ >> 32;
        return *this;
    }

    /** Mix a byte string eight bytes per step, then its length. */
    WordHash &
    bytes(std::string_view s)
    {
        size_t i = 0;
        for (; i + 8 <= s.size(); i += 8) {
            uint64_t w;
            std::memcpy(&w, s.data() + i, 8);
            word(w);
        }
        if (i < s.size()) {
            uint64_t w = 0;
            std::memcpy(&w, s.data() + i, s.size() - i);
            word(w);
        }
        return word(s.size());
    }

    /** The hash of everything mixed so far (MurmurHash3's fmix64). */
    uint64_t
    value() const
    {
        uint64_t h = h_;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

} // namespace ll

#endif // LL_SUPPORT_HASH_H
