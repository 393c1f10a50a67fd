/**
 * @file
 * Flip-N-Write implementation.
 */

#include "pcm/fnw.hh"

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

namespace
{

/** @p line with every region whose bit of @p flip_bits is set inverted. */
CacheLine
invertRegions(const CacheLine &line, uint64_t flip_bits,
              unsigned region_bits)
{
    CacheLine out;
    lineKernels().selectByWordMask(~line, line, flip_bits, region_bits,
                                   out);
    return out;
}

} // namespace

FnwResult
applyFnw(const CacheLine &old_stored, uint64_t old_flip_bits,
         const CacheLine &logical, unsigned region_bits)
{
    // At most 64 regions (one flip bit each in a uint64_t) of at
    // most 64 bits: 8, 16, 32 or 64 bits per region.
    deuce_assert(region_bits >= 8 && region_bits <= 64);
    deuce_assert(CacheLine::kBits % region_bits == 0);
    unsigned regions = fnwRegions(region_bits);

    FnwResult result;

    // One fused pass over the line gives every region's as-is flip
    // count; the inverted candidate's count follows for free, since
    // XOR-ing a region with its all-ones mask flips every bit:
    // popcount(old ^ ~new) == region_bits - popcount(old ^ new).
    uint16_t plain_counts[CacheLine::kBits / 2];
    const CacheLine diff = old_stored.diff(logical);
    lineKernels().regionPopcounts(diff, region_bits, plain_counts);

    for (unsigned r = 0; r < regions; ++r) {
        bool old_flip = (old_flip_bits >> r) & 1;

        // Candidate 0: store as-is; candidate 1: store inverted.
        unsigned plain_flips = plain_counts[r];
        unsigned inverted_flips = region_bits - plain_flips;
        unsigned cost0 = plain_flips + (old_flip ? 1u : 0u);
        unsigned cost1 = inverted_flips + (old_flip ? 0u : 1u);

        bool invert = cost1 < cost0;
        if (invert) {
            result.flipBits |= uint64_t{1} << r;
            result.dataFlips += inverted_flips;
        } else {
            result.dataFlips += plain_flips;
        }
        if (invert != old_flip) {
            ++result.flipBitFlips;
        }
    }
    result.stored = invertRegions(logical, result.flipBits, region_bits);
    return result;
}

CacheLine
fnwDecode(const CacheLine &stored, uint64_t flip_bits,
          unsigned region_bits)
{
    deuce_assert(region_bits >= 8 && region_bits <= 64);
    deuce_assert(CacheLine::kBits % region_bits == 0);
    return invertRegions(stored, flip_bits, region_bits);
}

unsigned
dcwFlips(const CacheLine &old_stored, const CacheLine &logical)
{
    return hammingDistance(old_stored, logical);
}

} // namespace deuce
