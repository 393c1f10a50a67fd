/**
 * @file
 * Line-kernel registry (CPUID detection, selection-knob resolution,
 * the kind -> ops mapping) and the scalar reference backend — the
 * portable limb-at-a-time loops the SIMD backends are tested against.
 */

#include "common/line_kernels.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/runtime_events.hh"

namespace deuce
{

// ---------------------------------------------------------------------
// Scalar reference backend.
// ---------------------------------------------------------------------

namespace
{

unsigned
scalarPopcount(const CacheLine &a)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        total += static_cast<unsigned>(std::popcount(a.limbs()[i]));
    }
    return total;
}

unsigned
scalarXorPopcount(const CacheLine &a, const CacheLine &b)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        total += static_cast<unsigned>(
            std::popcount(a.limbs()[i] ^ b.limbs()[i]));
    }
    return total;
}

unsigned
scalarDiffInto(const CacheLine &a, const CacheLine &b,
               CacheLine &diff_out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] ^ b.limbs()[i];
        diff_out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

uint64_t
scalarWordDiffMask(const CacheLine &a, const CacheLine &b,
                   unsigned word_bits)
{
    deuce_assert(word_bits >= 8 && word_bits <= CacheLine::kBits &&
                 std::has_single_bit(word_bits));

    uint64_t mask = 0;
    if (word_bits >= 64) {
        unsigned limbs_per_word = word_bits / 64;
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            if (a.limbs()[i] != b.limbs()[i]) {
                mask |= uint64_t{1} << (i / limbs_per_word);
            }
        }
        return mask;
    }

    unsigned words_per_limb = 64 / word_bits;
    uint64_t word_mask = (uint64_t{1} << word_bits) - 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] ^ b.limbs()[i];
        for (unsigned j = 0; x != 0 && j < words_per_limb; ++j) {
            if ((x >> (j * word_bits)) & word_mask) {
                mask |= uint64_t{1} << (i * words_per_limb + j);
            }
        }
    }
    return mask;
}

void
scalarRegionPopcounts(const CacheLine &diff, unsigned region_bits,
                      uint16_t *out)
{
    deuce_assert(region_bits >= 2 &&
                 CacheLine::kBits % region_bits == 0);

    if (region_bits >= 64) {
        unsigned limbs_per_region = region_bits / 64;
        unsigned regions = CacheLine::kBits / region_bits;
        for (unsigned r = 0; r < regions; ++r) {
            unsigned total = 0;
            for (unsigned i = 0; i < limbs_per_region; ++i) {
                total += static_cast<unsigned>(std::popcount(
                    diff.limbs()[r * limbs_per_region + i]));
            }
            out[r] = static_cast<uint16_t>(total);
        }
        return;
    }

    unsigned regions_per_limb = 64 / region_bits;
    uint64_t region_mask = (uint64_t{1} << region_bits) - 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = diff.limbs()[i];
        for (unsigned j = 0; j < regions_per_limb; ++j) {
            out[i * regions_per_limb + j] =
                static_cast<uint16_t>(std::popcount(
                    (x >> (j * region_bits)) & region_mask));
        }
    }
}

unsigned
scalarMaskedXorInto(const CacheLine &a, const CacheLine &b,
                    const CacheLine &mask, CacheLine &out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x =
            (a.limbs()[i] ^ b.limbs()[i]) & mask.limbs()[i];
        out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

unsigned
scalarAndNotInto(const CacheLine &a, const CacheLine &b,
                 CacheLine &out)
{
    unsigned total = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = a.limbs()[i] & ~b.limbs()[i];
        out.limbs()[i] = x;
        total += static_cast<unsigned>(std::popcount(x));
    }
    return total;
}

void
scalarAccumulateFlips(const CacheLine &diff, uint64_t *counters)
{
    for (unsigned limb = 0; limb < CacheLine::kLimbs; ++limb) {
        uint64_t bits = diff.limbs()[limb];
        while (bits) {
            unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
            ++counters[limb * 64 + bit];
            bits &= bits - 1;
        }
    }
}

void
scalarPopcountBatch(const CacheLine *lines, uint32_t *out,
                    std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = scalarPopcount(lines[i]);
    }
}

void
scalarAccumulateFlipsBatch(const CacheLine *diffs, std::size_t n,
                           uint64_t *counters)
{
    // The reference is the naive per-line scan that every backend's
    // positional popcount must stay bit-identical to.
    for (std::size_t i = 0; i < n; ++i) {
        scalarAccumulateFlips(diffs[i], counters);
    }
}

constexpr LineKernelOps kScalarOps = {
    "scalar",
    &scalarPopcount,
    &scalarXorPopcount,
    &scalarDiffInto,
    &scalarWordDiffMask,
    &scalarRegionPopcounts,
    &scalarMaskedXorInto,
    &scalarAndNotInto,
    &detail::selectWords,
    &scalarPopcountBatch,
    &scalarAccumulateFlipsBatch,
    &detail::mlcCellDiffExpand,
    &detail::mlcTransitionAccumulate,
};

} // namespace

namespace detail
{

unsigned
mlcCellDiffExpand(const CacheLine &diff, CacheLine &cell_mask)
{
    // Even/odd bit pairs of a limb are the 32 cells it holds; OR the
    // pair down onto the even plane, count, and spread back to both
    // bits of each touched cell.
    constexpr uint64_t kEven = 0x5555555555555555ULL;
    unsigned cells = 0;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t x = diff.limbs()[i];
        uint64_t pair = (x | (x >> 1)) & kEven;
        cells += static_cast<unsigned>(std::popcount(pair));
        cell_mask.limbs()[i] = pair | (pair << 1);
    }
    return cells;
}

void
mlcTransitionAccumulate(const CacheLine &before, const CacheLine &after,
                        uint64_t *counts)
{
    // Bit-plane decode: o0/o1 (n0/n1) are the low/high level bits of
    // all 32 cells of a limb, packed on the even plane. One popcount
    // per (old, new) bucket per limb beats extracting 2-bit fields
    // cell by cell.
    constexpr uint64_t kEven = 0x5555555555555555ULL;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t o = before.limbs()[i];
        uint64_t a = after.limbs()[i];
        uint64_t o0 = o & kEven;
        uint64_t o1 = (o >> 1) & kEven;
        uint64_t n0 = a & kEven;
        uint64_t n1 = (a >> 1) & kEven;
        for (unsigned old_lv = 0; old_lv < 4; ++old_lv) {
            uint64_t om = ((old_lv & 1) ? o0 : o0 ^ kEven) &
                          ((old_lv & 2) ? o1 : o1 ^ kEven);
            if (om == 0) {
                continue;
            }
            for (unsigned new_lv = 0; new_lv < 4; ++new_lv) {
                uint64_t nm = ((new_lv & 1) ? n0 : n0 ^ kEven) &
                              ((new_lv & 2) ? n1 : n1 ^ kEven);
                counts[old_lv * 4 + new_lv] += static_cast<uint64_t>(
                    std::popcount(om & nm));
            }
        }
    }
}

namespace
{

/**
 * Limb masks for a W-bit-word select, indexed by the limb's 64 / W
 * word-mask bits: entry m has all W bits of word j set iff bit j of
 * m is.
 */
template <unsigned W>
constexpr std::array<uint64_t, (1u << (64 / W))>
limbSelectMasks()
{
    constexpr uint64_t kWord =
        W == 64 ? ~uint64_t{0} : (uint64_t{1} << W) - 1;
    std::array<uint64_t, (1u << (64 / W))> masks{};
    for (unsigned m = 0; m < masks.size(); ++m) {
        for (unsigned j = 0; j < 64 / W; ++j) {
            if ((m >> j) & 1) {
                masks[m] |= kWord << (j * W);
            }
        }
    }
    return masks;
}

template <unsigned W>
inline void
selectWordsOf(const CacheLine &a, const CacheLine &b, uint64_t word_mask,
              CacheLine &out)
{
    static constexpr auto kMasks = limbSelectMasks<W>();
    constexpr unsigned kPerLimb = 64 / W;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        uint64_t m =
            kMasks[(word_mask >> (i * kPerLimb)) & (kMasks.size() - 1)];
        out.limbs()[i] = (a.limbs()[i] & m) | (b.limbs()[i] & ~m);
    }
}

} // namespace

void
selectWords(const CacheLine &a, const CacheLine &b, uint64_t word_mask,
            unsigned word_bits, CacheLine &out)
{
    // Limb i of out depends only on limb i of a and b, so writing it
    // right after reading them is safe when out aliases an input.
    switch (word_bits) {
      case 8:
        selectWordsOf<8>(a, b, word_mask, out);
        return;
      case 16:
        selectWordsOf<16>(a, b, word_mask, out);
        return;
      case 32:
        selectWordsOf<32>(a, b, word_mask, out);
        return;
      case 64:
        selectWordsOf<64>(a, b, word_mask, out);
        return;
      default:
        deuce_panic("selectByWordMask: word_bits must be 8, 16, 32 "
                    "or 64");
    }
}

void
positionalFlipAccumulate(const CacheLine *diffs, std::size_t n,
                         uint64_t *counters)
{
    // Positional popcount in 64-bit SWAR lanes: byte b of acc[p][l]
    // counts bit p of byte b of limb l, i.e. line bit 64l + 8b + p.
    // Shifting a limb right by p and masking the low bit of every
    // byte lands eight of those bits at once. A byte counter holds
    // 255 lines, so flush before it can wrap.
    constexpr uint64_t kLowBits = 0x0101010101010101ULL;
    while (n > 0) {
        std::size_t g = n < 255 ? n : 255;
        uint64_t acc[8][CacheLine::kLimbs] = {};
        for (std::size_t i = 0; i < g; ++i) {
            for (unsigned p = 0; p < 8; ++p) {
                for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
                    acc[p][l] += (diffs[i].limbs()[l] >> p) & kLowBits;
                }
            }
        }
        for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
            for (unsigned b = 0; b < 8; ++b) {
                for (unsigned p = 0; p < 8; ++p) {
                    counters[64 * l + 8 * b + p] +=
                        (acc[p][l] >> (8 * b)) & 0xff;
                }
            }
        }
        diffs += g;
        n -= g;
    }
}

} // namespace detail

const LineKernelOps *
scalarLineKernelOps()
{
    return &kScalarOps;
}

// ---------------------------------------------------------------------
// Registry and dispatch.
// ---------------------------------------------------------------------

namespace
{

/** CPUID-level AVX2 support (independent of whether the TU built). */
bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/** Explicit override installed by setLineBackend(); Auto = none. */
std::atomic<LineBackendKind> g_override{LineBackendKind::Auto};

/** Backend named by DEUCE_LINE_BACKEND, read once (Auto when unset). */
LineBackendKind
envBackend()
{
    static const LineBackendKind kind = [] {
        const char *env = std::getenv("DEUCE_LINE_BACKEND");
        if (env == nullptr || *env == '\0') {
            return LineBackendKind::Auto;
        }
        std::optional<LineBackendKind> parsed =
            parseLineBackendName(env);
        if (!parsed) {
            deuce_fatal(std::string("DEUCE_LINE_BACKEND=") + env +
                        ": expected auto, scalar, avx2 or neon");
        }
        return *parsed;
    }();
    return kind;
}

/** One-time note when an explicit SIMD request resolves as Auto. */
void
warnUnavailable(const char *wanted, const char *got)
{
    static std::once_flag warned;
    std::call_once(warned, [wanted, got] {
        emitRuntimeWarning(
            "line_backend",
            std::string(wanted) +
                " line-kernel backend requested but unavailable on "
                "this host; falling back to " +
                got + " (results are bit-identical)");
    });
}

} // namespace

bool
avx2Available()
{
    return avx2LineKernelOps() != nullptr && cpuHasAvx2();
}

bool
neonLineKernelsAvailable()
{
    // The NEON TU only builds for aarch64 targets, where the vector
    // unit is architecturally guaranteed: compiled-in means usable.
    return neonLineKernelOps() != nullptr;
}

LineBackendKind
resolveLineBackend(LineBackendKind kind)
{
    // Auto takes the fastest available backend (avx2 > neon >
    // scalar); an explicit but unavailable request warns once and
    // resolves as Auto.
    LineBackendKind best = avx2Available()
        ? LineBackendKind::Avx2
        : neonLineKernelsAvailable() ? LineBackendKind::Neon
                                     : LineBackendKind::Scalar;
    bool available = true;
    switch (kind) {
      case LineBackendKind::Auto:
        return best;
      case LineBackendKind::Avx2:
        available = avx2Available();
        break;
      case LineBackendKind::Neon:
        available = neonLineKernelsAvailable();
        break;
      case LineBackendKind::Scalar:
        break;
    }
    if (!available) {
        warnUnavailable(lineBackendName(kind), lineBackendName(best));
        return best;
    }
    return kind;
}

const LineKernelOps *
lineBackendOps(LineBackendKind kind)
{
    switch (resolveLineBackend(kind)) {
      case LineBackendKind::Avx2:
        return avx2LineKernelOps();
      case LineBackendKind::Neon:
        return neonLineKernelOps();
      case LineBackendKind::Scalar:
      default:
        return scalarLineKernelOps();
    }
}

LineBackendKind
defaultLineBackend()
{
    LineBackendKind kind = g_override.load(std::memory_order_relaxed);
    if (kind == LineBackendKind::Auto) {
        kind = envBackend();
    }
    return resolveLineBackend(kind);
}

namespace detail
{

std::atomic<const LineKernelOps *> g_activeLineOps{nullptr};

namespace
{
/** Concrete kind behind g_activeLineOps (for row attribution). */
std::atomic<LineBackendKind> g_activeKind{LineBackendKind::Scalar};
} // namespace

const LineKernelOps &
resolveActiveLineOps()
{
    LineBackendKind kind = defaultLineBackend();
    const LineKernelOps *ops = lineBackendOps(kind);
    g_activeKind.store(kind, std::memory_order_relaxed);
    g_activeLineOps.store(ops, std::memory_order_release);
    return *ops;
}

} // namespace detail

void
setLineBackend(LineBackendKind kind)
{
    g_override.store(kind, std::memory_order_relaxed);
    detail::resolveActiveLineOps();
}

LineBackendKind
activeLineBackend()
{
    if (detail::g_activeLineOps.load(std::memory_order_acquire) ==
        nullptr) {
        detail::resolveActiveLineOps();
    }
    return detail::g_activeKind.load(std::memory_order_relaxed);
}

std::optional<LineBackendKind>
parseLineBackendName(const std::string &name)
{
    if (name == "auto") {
        return LineBackendKind::Auto;
    }
    if (name == "scalar") {
        return LineBackendKind::Scalar;
    }
    if (name == "avx2") {
        return LineBackendKind::Avx2;
    }
    if (name == "neon") {
        return LineBackendKind::Neon;
    }
    return std::nullopt;
}

const char *
lineBackendName(LineBackendKind kind)
{
    switch (kind) {
      case LineBackendKind::Auto:
        return "auto";
      case LineBackendKind::Scalar:
        return "scalar";
      case LineBackendKind::Avx2:
        return "avx2";
      case LineBackendKind::Neon:
        return "neon";
    }
    return "auto";
}

std::vector<LineBackendKind>
availableLineBackends()
{
    std::vector<LineBackendKind> kinds{LineBackendKind::Scalar};
    if (avx2Available()) {
        kinds.push_back(LineBackendKind::Avx2);
    }
    if (neonLineKernelsAvailable()) {
        kinds.push_back(LineBackendKind::Neon);
    }
    return kinds;
}

} // namespace deuce
