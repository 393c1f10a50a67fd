/**
 * @file
 * AVX2 line-kernel backend: the whole 512-bit line in two 256-bit
 * registers, per-byte popcounts via the VPSHUFB nibble LUT (Mula's
 * method) summed with VPSADBW, and a byte-lane positional popcount
 * for wear (the word select is the shared one: a VPBLENDVB version
 * was faster alone but no faster end to end). This is the only TU
 * compiled with -mavx2 (no global -march change): the backend is
 * gated at runtime by CPUID, so the rest of the binary must stay
 * runnable on hosts without AVX2.
 */

#include "common/line_kernels.hh"

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace deuce
{

namespace
{

inline __m256i
loadHalf(const CacheLine &line, unsigned half)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(line.limbs() + 4 * half));
}

inline void
storeHalf(CacheLine &line, unsigned half, __m256i v)
{
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(line.limbs() + 4 * half), v);
}

/** Per-byte popcounts of @p v: nibble LUT, two VPSHUFB per vector. */
inline __m256i
bytePopcounts(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Horizontal sum of the four 64-bit lanes of @p v. */
inline unsigned
laneSum(__m256i v)
{
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(s) +
        _mm_cvtsi128_si64(_mm_srli_si128(s, 8)));
}

inline __m256i
sadToLanes(__m256i byte_counts)
{
    return _mm256_sad_epu8(byte_counts, _mm256_setzero_si256());
}

unsigned
avx2Popcount(const CacheLine &a)
{
    __m256i acc =
        _mm256_add_epi64(sadToLanes(bytePopcounts(loadHalf(a, 0))),
                         sadToLanes(bytePopcounts(loadHalf(a, 1))));
    return laneSum(acc);
}

unsigned
avx2XorPopcount(const CacheLine &a, const CacheLine &b)
{
    __m256i x0 = _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0));
    __m256i x1 = _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1));
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

unsigned
avx2DiffInto(const CacheLine &a, const CacheLine &b,
             CacheLine &diff_out)
{
    __m256i x0 = _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0));
    __m256i x1 = _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1));
    storeHalf(diff_out, 0, x0);
    storeHalf(diff_out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

uint64_t
avx2WordDiffMask(const CacheLine &a, const CacheLine &b,
                 unsigned word_bits)
{
    deuce_assert(word_bits >= 8 && word_bits <= CacheLine::kBits &&
                 std::has_single_bit(word_bits));

    // One vector compare at the word's own width; the movemask then
    // needs no cross-byte collapse. 8-bit words: PMOVMSKB directly.
    if (word_bits == 8) {
        uint32_t eq0 = static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(loadHalf(a, 0), loadHalf(b, 0))));
        uint32_t eq1 = static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(loadHalf(a, 1), loadHalf(b, 1))));
        return ~(static_cast<uint64_t>(eq1) << 32 | eq0);
    }
    if (word_bits == 16) {
        // Saturating pack narrows each 16-bit 0/FFFF compare result
        // to one byte; the pack interleaves 128-bit lanes, so a
        // qword permute restores word order before the movemask.
        __m256i eq0 =
            _mm256_cmpeq_epi16(loadHalf(a, 0), loadHalf(b, 0));
        __m256i eq1 =
            _mm256_cmpeq_epi16(loadHalf(a, 1), loadHalf(b, 1));
        __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi16(eq0, eq1), _MM_SHUFFLE(3, 1, 2, 0));
        uint32_t eq = static_cast<uint32_t>(
            _mm256_movemask_epi8(packed));
        return static_cast<uint64_t>(~eq) & 0xffffffffu;
    }
    if (word_bits == 32) {
        uint32_t eq0 = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(loadHalf(a, 0), loadHalf(b, 0)))));
        uint32_t eq1 = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(loadHalf(a, 1), loadHalf(b, 1)))));
        return ~(eq1 << 8 | eq0) & 0xffffu;
    }
    // 64-bit and wider words span whole limbs: OR the limb XORs of
    // each word and test for zero — a handful of scalar ops.
    unsigned limbs_per_word = word_bits / 64;
    unsigned words = CacheLine::kBits / word_bits;
    uint64_t out = 0;
    for (unsigned w = 0; w < words; ++w) {
        uint64_t d = 0;
        for (unsigned l = 0; l < limbs_per_word; ++l) {
            unsigned i = w * limbs_per_word + l;
            d |= a.limbs()[i] ^ b.limbs()[i];
        }
        out |= static_cast<uint64_t>(d != 0) << w;
    }
    return out;
}

void
avx2RegionPopcounts(const CacheLine &diff, unsigned region_bits,
                    uint16_t *out)
{
    if (region_bits < 8) {
        // Sub-byte regions: no SIMD win, delegate to the reference.
        scalarLineKernelOps()->regionPopcounts(diff, region_bits, out);
        return;
    }
    deuce_assert(CacheLine::kBits % region_bits == 0);

    if (region_bits >= 64) {
        // VPSADBW already produces per-64-bit-lane sums; regions are
        // whole numbers of lanes, so sum lane groups directly.
        uint64_t lanes[CacheLine::kLimbs];
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(lanes),
            sadToLanes(bytePopcounts(loadHalf(diff, 0))));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(lanes + 4),
            sadToLanes(bytePopcounts(loadHalf(diff, 1))));
        unsigned limbs_per_region = region_bits / 64;
        unsigned regions = CacheLine::kBits / region_bits;
        for (unsigned r = 0; r < regions; ++r) {
            unsigned total = 0;
            for (unsigned i = 0; i < limbs_per_region; ++i) {
                total += static_cast<unsigned>(
                    lanes[r * limbs_per_region + i]);
            }
            out[r] = static_cast<uint16_t>(total);
        }
        return;
    }

    uint8_t counts[CacheLine::kBytes];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts),
                        bytePopcounts(loadHalf(diff, 0)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(counts + 32),
                        bytePopcounts(loadHalf(diff, 1)));
    unsigned bytes_per_region = region_bits / 8;
    unsigned regions = CacheLine::kBits / region_bits;
    for (unsigned r = 0; r < regions; ++r) {
        unsigned total = 0;
        for (unsigned i = 0; i < bytes_per_region; ++i) {
            total += counts[r * bytes_per_region + i];
        }
        out[r] = static_cast<uint16_t>(total);
    }
}

unsigned
avx2MaskedXorInto(const CacheLine &a, const CacheLine &b,
                  const CacheLine &mask, CacheLine &out)
{
    __m256i x0 = _mm256_and_si256(
        _mm256_xor_si256(loadHalf(a, 0), loadHalf(b, 0)),
        loadHalf(mask, 0));
    __m256i x1 = _mm256_and_si256(
        _mm256_xor_si256(loadHalf(a, 1), loadHalf(b, 1)),
        loadHalf(mask, 1));
    storeHalf(out, 0, x0);
    storeHalf(out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

unsigned
avx2AndNotInto(const CacheLine &a, const CacheLine &b, CacheLine &out)
{
    // _mm256_andnot_si256(m, v) computes ~m & v.
    __m256i x0 = _mm256_andnot_si256(loadHalf(b, 0), loadHalf(a, 0));
    __m256i x1 = _mm256_andnot_si256(loadHalf(b, 1), loadHalf(a, 1));
    storeHalf(out, 0, x0);
    storeHalf(out, 1, x1);
    __m256i acc = _mm256_add_epi64(sadToLanes(bytePopcounts(x0)),
                                   sadToLanes(bytePopcounts(x1)));
    return laneSum(acc);
}

/**
 * Thirty-two 0x00/0xff byte lanes, lane k set iff bit k of @p bits
 * is: VPSHUFB spreads byte k / 8 of the broadcast to lane k (it stays
 * within each 128-bit lane, so each lane names its own two bytes),
 * then each lane keeps its own bit and compares.
 */
inline __m256i
byteLaneMask(uint32_t bits)
{
    const __m256i spread = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    const __m256i bit = _mm256_set1_epi64x(0x8040201008040201LL);
    __m256i v = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(bits)), spread);
    return _mm256_cmpeq_epi8(_mm256_and_si256(v, bit), bit);
}

void
avx2PopcountBatch(const CacheLine *lines, uint32_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = avx2Popcount(lines[i]);
    }
}

/** counters[k] += byte k of @p acc, for k in [0, 32). */
inline void
flushByteCounters(__m256i acc, uint64_t *counters)
{
    alignas(32) uint8_t bytes[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(bytes), acc);
    for (unsigned q = 0; q < 32; q += 4) {
        uint32_t quad;
        std::memcpy(&quad, bytes + q, sizeof(quad));
        __m256i wide = _mm256_cvtepu8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(quad)));
        __m256i *dst = reinterpret_cast<__m256i *>(counters + q);
        _mm256_storeu_si256(
            dst, _mm256_add_epi64(_mm256_loadu_si256(dst), wide));
    }
}

void
avx2AccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    // Positional popcount (Klarqvist, Mula & Lemire): walk the line
    // in 32-bit chunks, and for each chunk run down the batch with
    // one register of 32 byte counters. Mask lanes are 0xff, so
    // subtracting one adds one; a byte counter holds 255 lines, then
    // it is widened into counters.
    while (n > 0) {
        std::size_t g = n < 255 ? n : 255;
        for (unsigned c = 0; c < CacheLine::kBits / 32; ++c) {
            __m256i acc = _mm256_setzero_si256();
            for (std::size_t i = 0; i < g; ++i) {
                acc = _mm256_sub_epi8(
                    acc, byteLaneMask(static_cast<uint32_t>(
                             diffs[i].limbs()[c / 2] >> (32 * (c % 2)))));
            }
            flushByteCounters(acc, counters + 32 * c);
        }
        diffs += g;
        n -= g;
    }
}

constexpr LineKernelOps kAvx2Ops = {
    "avx2",
    &avx2Popcount,
    &avx2XorPopcount,
    &avx2DiffInto,
    &avx2WordDiffMask,
    &avx2RegionPopcounts,
    &avx2MaskedXorInto,
    &avx2AndNotInto,
    &detail::selectWords,
    &avx2PopcountBatch,
    &avx2AccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

const LineKernelOps *
avx2LineKernelOps()
{
    return &kAvx2Ops;
}

} // namespace deuce
