/**
 * @file
 * Flip-N-Write (Cho & Lee, MICRO-2009) applied to a stored line image.
 *
 * The line is divided into fixed-width regions, each owning one flip
 * bit. When writing a new logical value, a region is stored either
 * as-is (flip bit 0) or inverted (flip bit 1), whichever needs fewer
 * cell flips relative to what is currently stored — counting the flip
 * bit itself. This bounds the flips per region to half the region
 * width (plus the flip bit).
 */

#ifndef DEUCE_PCM_FNW_HH
#define DEUCE_PCM_FNW_HH

#include <cstdint>

#include "common/cache_line.hh"

namespace deuce
{

/** Result of encoding a line with Flip-N-Write. */
struct FnwResult
{
    /** New stored cell image (regions possibly inverted). */
    CacheLine stored;

    /** New flip-bit vector (bit r set = region r stored inverted). */
    uint64_t flipBits = 0;

    /** Cell flips in the data array (old stored vs new stored). */
    unsigned dataFlips = 0;

    /** Cell flips among the flip bits themselves. */
    unsigned flipBitFlips = 0;
};

/** Number of FNW regions for a given granularity. */
constexpr unsigned
fnwRegions(unsigned region_bits)
{
    return CacheLine::kBits / region_bits;
}

/**
 * Encode @p logical for storage with Flip-N-Write.
 *
 * @param old_stored    current cell contents of the line
 * @param old_flip_bits current flip-bit vector
 * @param logical       new logical (un-inverted) value to represent
 * @param region_bits   FNW granularity in bits (default 16 = 2 bytes,
 *                      the paper's configuration): 8, 16, 32 or 64
 */
FnwResult applyFnw(const CacheLine &old_stored, uint64_t old_flip_bits,
                   const CacheLine &logical, unsigned region_bits = 16);

/** Recover the logical value from a stored image and its flip bits. */
CacheLine fnwDecode(const CacheLine &stored, uint64_t flip_bits,
                    unsigned region_bits = 16);

/**
 * Flips needed to write @p logical *without* FNW (plain data
 * comparison write): the Hamming distance to the stored image.
 */
unsigned dcwFlips(const CacheLine &old_stored, const CacheLine &logical);

} // namespace deuce

#endif // DEUCE_PCM_FNW_HH
