/**
 * @file
 * SSE2 line-kernel backend: two limbs per 128-bit register, SWAR
 * popcount summed with PSADBW, byte-compare diff masks via
 * PCMPEQB+PMOVMSKB, and a byte-lane positional popcount for wear
 * (the word select is the shared one, which SSE2 does not beat).
 * SSE2 is baseline on x86-64, so this TU needs no special compile
 * flags — it compiles to a null stub on targets without SSE2 and the
 * registry skips the backend.
 */

#include "common/line_kernels.hh"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <bit>

#include "common/logging.hh"

namespace deuce
{

namespace
{

inline __m128i
loadChunk(const CacheLine &line, unsigned chunk)
{
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(line.limbs() + 2 * chunk));
}

inline void
storeChunk(CacheLine &line, unsigned chunk, __m128i v)
{
    _mm_storeu_si128(
        reinterpret_cast<__m128i *>(line.limbs() + 2 * chunk), v);
}

/** Per-byte popcounts of @p v (classic SWAR, no table). */
inline __m128i
bytePopcounts(__m128i v)
{
    const __m128i m1 = _mm_set1_epi8(0x55);
    const __m128i m2 = _mm_set1_epi8(0x33);
    const __m128i m4 = _mm_set1_epi8(0x0f);
    v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi64(v, 1), m1));
    v = _mm_add_epi8(_mm_and_si128(v, m2),
                     _mm_and_si128(_mm_srli_epi64(v, 2), m2));
    v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi64(v, 4)), m4);
    return v;
}

/** Sum of all bytes of @p v (each byte <= 8 here, so no overflow). */
inline unsigned
byteSum(__m128i v)
{
    __m128i sums = _mm_sad_epu8(v, _mm_setzero_si128());
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(sums) +
        _mm_cvtsi128_si64(_mm_srli_si128(sums, 8)));
}

unsigned
sse2Popcount(const CacheLine &a)
{
    __m128i acc = _mm_setzero_si128();
    for (unsigned c = 0; c < 4; ++c) {
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(bytePopcounts(loadChunk(a, c)),
                              _mm_setzero_si128()));
    }
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(acc) +
        _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

unsigned
sse2XorPopcount(const CacheLine &a, const CacheLine &b)
{
    __m128i acc = _mm_setzero_si128();
    for (unsigned c = 0; c < 4; ++c) {
        __m128i x = _mm_xor_si128(loadChunk(a, c), loadChunk(b, c));
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(bytePopcounts(x), _mm_setzero_si128()));
    }
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(acc) +
        _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

unsigned
sse2DiffInto(const CacheLine &a, const CacheLine &b,
             CacheLine &diff_out)
{
    __m128i x0 = _mm_xor_si128(loadChunk(a, 0), loadChunk(b, 0));
    __m128i x1 = _mm_xor_si128(loadChunk(a, 1), loadChunk(b, 1));
    __m128i x2 = _mm_xor_si128(loadChunk(a, 2), loadChunk(b, 2));
    __m128i x3 = _mm_xor_si128(loadChunk(a, 3), loadChunk(b, 3));
    storeChunk(diff_out, 0, x0);
    storeChunk(diff_out, 1, x1);
    storeChunk(diff_out, 2, x2);
    storeChunk(diff_out, 3, x3);
    __m128i acc = _mm_sad_epu8(bytePopcounts(x0), _mm_setzero_si128());
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(bytePopcounts(x1), _mm_setzero_si128()));
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(bytePopcounts(x2), _mm_setzero_si128()));
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(bytePopcounts(x3), _mm_setzero_si128()));
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(acc) +
        _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

uint64_t
sse2WordDiffMask(const CacheLine &a, const CacheLine &b,
                 unsigned word_bits)
{
    deuce_assert(word_bits >= 8 && word_bits <= CacheLine::kBits &&
                 std::has_single_bit(word_bits));

    // One vector compare at the word's own width; the movemask then
    // needs no cross-byte collapse. 8-bit words: PMOVMSKB directly.
    if (word_bits == 8) {
        uint64_t mask = 0;
        for (unsigned c = 0; c < 4; ++c) {
            int eq = _mm_movemask_epi8(
                _mm_cmpeq_epi8(loadChunk(a, c), loadChunk(b, c)));
            mask |= static_cast<uint64_t>(~eq & 0xffff) << (16 * c);
        }
        return mask;
    }
    if (word_bits == 16) {
        // Saturating pack narrows each 16-bit 0/FFFF compare result
        // to one byte, so one movemask covers two chunks.
        uint64_t mask = 0;
        for (unsigned half = 0; half < 2; ++half) {
            __m128i eq0 = _mm_cmpeq_epi16(loadChunk(a, 2 * half),
                                          loadChunk(b, 2 * half));
            __m128i eq1 = _mm_cmpeq_epi16(loadChunk(a, 2 * half + 1),
                                          loadChunk(b, 2 * half + 1));
            int eq = _mm_movemask_epi8(_mm_packs_epi16(eq0, eq1));
            mask |= static_cast<uint64_t>(~eq & 0xffff) << (16 * half);
        }
        return mask;
    }
    if (word_bits == 32) {
        uint64_t mask = 0;
        for (unsigned c = 0; c < 4; ++c) {
            int eq = _mm_movemask_ps(_mm_castsi128_ps(
                _mm_cmpeq_epi32(loadChunk(a, c), loadChunk(b, c))));
            mask |= static_cast<uint64_t>(~eq & 0xf) << (4 * c);
        }
        return mask;
    }
    // 64-bit and wider words span whole limbs (SSE2 lacks PCMPEQQ):
    // OR the limb XORs of each word and test for zero.
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
sse2RegionPopcounts(const CacheLine &diff, unsigned region_bits,
                    uint16_t *out)
{
    if (region_bits < 8) {
        // Sub-byte regions (FNW at 2/4-bit granularity): no SIMD win,
        // delegate to the reference loop.
        scalarLineKernelOps()->regionPopcounts(diff, region_bits, out);
        return;
    }
    deuce_assert(CacheLine::kBits % region_bits == 0);

    if (region_bits >= 64) {
        // PSADBW already produces per-64-bit-lane sums; regions are
        // whole numbers of lanes, so sum lane groups directly.
        uint64_t lanes[CacheLine::kLimbs];
        for (unsigned c = 0; c < 4; ++c) {
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(lanes + 2 * c),
                _mm_sad_epu8(bytePopcounts(loadChunk(diff, c)),
                             _mm_setzero_si128()));
        }
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
    for (unsigned c = 0; c < 4; ++c) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(counts + 16 * c),
                         bytePopcounts(loadChunk(diff, c)));
    }
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
sse2MaskedXorInto(const CacheLine &a, const CacheLine &b,
                  const CacheLine &mask, CacheLine &out)
{
    __m128i acc = _mm_setzero_si128();
    __m128i x[4];
    for (unsigned c = 0; c < 4; ++c) {
        x[c] = _mm_and_si128(
            _mm_xor_si128(loadChunk(a, c), loadChunk(b, c)),
            loadChunk(mask, c));
        acc = _mm_add_epi64(
            acc,
            _mm_sad_epu8(bytePopcounts(x[c]), _mm_setzero_si128()));
    }
    for (unsigned c = 0; c < 4; ++c) {
        storeChunk(out, c, x[c]);
    }
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(acc) +
        _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

unsigned
sse2AndNotInto(const CacheLine &a, const CacheLine &b, CacheLine &out)
{
    __m128i acc = _mm_setzero_si128();
    __m128i x[4];
    for (unsigned c = 0; c < 4; ++c) {
        // _mm_andnot_si128(m, v) computes ~m & v.
        x[c] = _mm_andnot_si128(loadChunk(b, c), loadChunk(a, c));
        acc = _mm_add_epi64(
            acc,
            _mm_sad_epu8(bytePopcounts(x[c]), _mm_setzero_si128()));
    }
    for (unsigned c = 0; c < 4; ++c) {
        storeChunk(out, c, x[c]);
    }
    return static_cast<unsigned>(
        _mm_cvtsi128_si64(acc) +
        _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

/**
 * Sixteen 0x00/0xff byte lanes, lane k set iff bit k of @p bits is:
 * three self-unpacks widen the two bytes of @p bits to eight lanes
 * each, then each lane keeps its own bit and compares.
 */
inline __m128i
byteLaneMask(unsigned bits)
{
    const __m128i bit = _mm_set1_epi64x(0x8040201008040201LL);
    __m128i v = _mm_cvtsi32_si128(static_cast<int>(bits & 0xffff));
    v = _mm_unpacklo_epi8(v, v);
    v = _mm_unpacklo_epi16(v, v);
    v = _mm_unpacklo_epi32(v, v);
    return _mm_cmpeq_epi8(_mm_and_si128(v, bit), bit);
}

void
sse2PopcountBatch(const CacheLine *lines, uint32_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = sse2Popcount(lines[i]);
    }
}

/**
 * counters[k] += byte k of @p acc, for k in [0, 16): three rounds of
 * unpacks against zero widen the bytes to 64-bit lanes in order.
 */
inline void
flushByteCounters(__m128i acc, uint64_t *counters)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i w16[2] = {_mm_unpacklo_epi8(acc, zero),
                            _mm_unpackhi_epi8(acc, zero)};
    for (unsigned h = 0; h < 2; ++h) {
        const __m128i w32[2] = {_mm_unpacklo_epi16(w16[h], zero),
                                _mm_unpackhi_epi16(w16[h], zero)};
        for (unsigned q = 0; q < 2; ++q) {
            const __m128i w64[2] = {_mm_unpacklo_epi32(w32[q], zero),
                                    _mm_unpackhi_epi32(w32[q], zero)};
            for (unsigned e = 0; e < 2; ++e) {
                auto *dst = reinterpret_cast<__m128i *>(
                    counters + 8 * h + 4 * q + 2 * e);
                _mm_storeu_si128(
                    dst, _mm_add_epi64(_mm_loadu_si128(dst), w64[e]));
            }
        }
    }
}

void
sse2AccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    // Positional popcount, 16 bits at a time: one register of 16
    // byte counters runs down the batch per 16-bit chunk (the mask
    // lanes are 0xff, so subtracting adds one), and is widened into
    // counters every 255 lines, before a byte can wrap.
    while (n > 0) {
        std::size_t g = n < 255 ? n : 255;
        for (unsigned c = 0; c < CacheLine::kBits / 16; ++c) {
            __m128i acc = _mm_setzero_si128();
            for (std::size_t i = 0; i < g; ++i) {
                unsigned chunk = static_cast<unsigned>(
                    diffs[i].limbs()[c / 4] >> (16 * (c % 4)));
                acc = _mm_sub_epi8(acc, byteLaneMask(chunk));
            }
            flushByteCounters(acc, counters + 16 * c);
        }
        diffs += g;
        n -= g;
    }
}

constexpr LineKernelOps kSse2Ops = {
    "sse2",
    &sse2Popcount,
    &sse2XorPopcount,
    &sse2DiffInto,
    &sse2WordDiffMask,
    &sse2RegionPopcounts,
    &sse2MaskedXorInto,
    &sse2AndNotInto,
    &detail::selectWords,
    &sse2PopcountBatch,
    &sse2AccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

const LineKernelOps *
sse2LineKernelOps()
{
    return &kSse2Ops;
}

} // namespace deuce

#else // !defined(__SSE2__)

namespace deuce
{

const LineKernelOps *
sse2LineKernelOps()
{
    return nullptr;
}

} // namespace deuce

#endif
