/**
 * @file
 * Line-kernel registry: runtime-dispatched SIMD backends for the
 * CacheLine diff/flip primitives every simulated writeback funnels
 * through.
 *
 * The library ships up to three bit-identical implementations of the
 * fused line primitives (XOR+popcount, per-word diff masks, per-word
 * select, per-region flip counts, wear accumulation, cross-line batch
 * sweeps):
 *
 *  - "scalar"  portable limb-at-a-time reference, extracted from the
 *              historical CacheLine/FNW/DEUCE loops (line_kernels.cc)
 *  - "avx2"    256-bit nibble-LUT popcount (vpshufb + vpsadbw); the
 *              only TU compiled with -mavx2 and only dispatched to
 *              when CPUID reports AVX2 (line_kernels_avx2.cc)
 *  - "neon"    128-bit CNT/ADDLP/ADDV popcount; baseline on AArch64,
 *              stubbed out elsewhere (line_kernels_neon.cc)
 *
 * Selection order for the active backend: setLineBackend() (the
 * --line-backend CLI flag) > the DEUCE_LINE_BACKEND environment
 * variable > Auto. Auto resolves to the fastest backend the host
 * supports (avx2 > neon > scalar); an explicit request for an
 * unavailable backend warns once and resolves as Auto, never an
 * error — all backends produce identical results, so a fallback
 * changes wall-clock only. The claim is enforced by the
 * backend-differential tests (tests/common/test_line_kernels.cc) and
 * the golden sweep regression (tests/sim/test_sweep_golden.cc).
 */

#ifndef DEUCE_COMMON_LINE_KERNELS_HH
#define DEUCE_COMMON_LINE_KERNELS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cache_line.hh"

namespace deuce
{

/**
 * Selectable line-kernel implementations. The values are pinned (2 is
 * retired) because parametrized test names print them.
 */
enum class LineBackendKind
{
    Auto = 0,   ///< resolve to the fastest available backend
    Scalar = 1, ///< portable limb-at-a-time reference implementation
    Avx2 = 3,   ///< 256-bit AVX2 implementation
    Neon = 4,   ///< 128-bit ARMv8 NEON implementation
};

/**
 * Function table of one backend. All functions must be bit-identical
 * to the scalar reference for every input; they differ in wall-clock
 * only. Output parameters may alias inputs (every implementation
 * loads a full line before storing any of it).
 */
struct LineKernelOps
{
    const char *name;

    /** Number of set bits in the line. */
    unsigned (*popcount)(const CacheLine &a);

    /** popcount(a ^ b) without materializing the diff. */
    unsigned (*xorPopcount)(const CacheLine &a, const CacheLine &b);

    /**
     * One-pass fused diff: writes a ^ b into @p diff_out (which may
     * alias @p a or @p b) and returns its popcount.
     */
    unsigned (*diffInto)(const CacheLine &a, const CacheLine &b,
                         CacheLine &diff_out);

    /**
     * Per-word diff bitmask: bit w is set iff word w of @p a and
     * @p b differ. @p word_bits must be a power of two in [8, 512]
     * (16 words of 32 bits is the shape the DEUCE hot path uses; BLE
     * uses 4 words of 128 bits).
     */
    uint64_t (*wordDiffMask)(const CacheLine &a, const CacheLine &b,
                             unsigned word_bits);

    /**
     * Masked per-region flip counts: out[r] = popcount of region r of
     * @p diff. @p region_bits must divide 512 (FNW regions are 16
     * bits; the device write slots are 4x128 bits). @p out must hold
     * 512 / region_bits entries.
     */
    void (*regionPopcounts)(const CacheLine &diff, unsigned region_bits,
                            uint16_t *out);

    /**
     * Fused stuck-cell conflict scan: out = (a ^ b) & mask, returning
     * its popcount. @p out may alias any input.
     */
    unsigned (*maskedXorInto)(const CacheLine &a, const CacheLine &b,
                              const CacheLine &mask, CacheLine &out);

    /** out = a & ~b, returning its popcount. @p out may alias. */
    unsigned (*andNotInto)(const CacheLine &a, const CacheLine &b,
                           CacheLine &out);

    /**
     * Per-word 2:1 select — the mux DEUCE uses to pick the LCTR or
     * TCTR pad of every word (Figure 7): word w of @p out is word w
     * of @p a when bit w of @p word_mask is set, else word w of @p b.
     * @p word_bits is 8, 16, 32 or 64; mask bits at or above
     * 512 / @p word_bits are ignored. @p out may alias @p a or @p b.
     */
    void (*selectByWordMask)(const CacheLine &a, const CacheLine &b,
                             uint64_t word_mask, unsigned word_bits,
                             CacheLine &out);

    /**
     * Batched per-line popcount for write bursts: out[i] =
     * popcount(lines[i]) for i in [0, n).
     */
    void (*popcountBatch)(const CacheLine *lines, uint32_t *out,
                          std::size_t n);

    /**
     * Wear accumulation: counters[i] += number of diffs among
     * @p diffs with bit i set. @p counters must hold CacheLine::kBits
     * entries. The scalar reference scans set bits line by line; the
     * SIMD backends count positions in byte lanes and walk the 512
     * wear counters once per 255 lines, not once per line.
     */
    void (*accumulateFlipsBatch)(const CacheLine *diffs, std::size_t n,
                                 uint64_t *counters);

    /**
     * MLC2 cell-granularity diff expansion: treats the line as 256
     * 2-bit cells (cell c = bits 2c and 2c+1), writes into
     * @p cell_mask a mask with BOTH bits of every cell touched by
     * @p diff set, and returns the number of programmed cells.
     * Programming an MLC cell rewrites its whole level, so wear
     * charges per cell, not per flipped bit. @p cell_mask may alias
     * @p diff.
     */
    unsigned (*mlcCellDiffInto)(const CacheLine &diff,
                                CacheLine &cell_mask);

    /**
     * MLC2 transition histogram: counts[old_level * 4 + new_level] +=
     * number of cells moving old -> new between @p before and
     * @p after, for all 16 (old, new) pairs including the same-level
     * diagonal. @p counts must hold 16 entries; entries are
     * accumulated, not overwritten.
     */
    void (*mlcTransitionCounts)(const CacheLine &before,
                                const CacheLine &after,
                                uint64_t *counts);

    /**
     * Single-line wear accumulation: accumulateFlipsBatch() with
     * n = 1, so one kernel per backend lands all wear.
     */
    void
    accumulateFlips(const CacheLine &diff, uint64_t *counters) const
    {
        accumulateFlipsBatch(&diff, 1, counters);
    }
};

/** True when AVX2 is both compiled in and reported by CPUID. */
bool avx2Available();

/** True when the NEON line-kernel TU was compiled in (DEUCE_NEON). */
bool neonLineKernelsAvailable();

/**
 * Resolve @p kind to a concrete, available backend: Auto picks the
 * best available; an explicit but unavailable request warns once
 * and resolves as Auto.
 */
LineBackendKind resolveLineBackend(LineBackendKind kind);

/** Ops table for @p kind (resolved first; never returns null). */
const LineKernelOps *lineBackendOps(LineBackendKind kind);

/**
 * Process-wide default backend: setLineBackend() override if any,
 * else DEUCE_LINE_BACKEND, else Auto — resolved to a concrete
 * backend.
 */
LineBackendKind defaultLineBackend();

/**
 * Override the default backend (the --line-backend flag). Takes
 * effect immediately: the next lineKernels() call anywhere in the
 * process dispatches through the new table.
 */
void setLineBackend(LineBackendKind kind);

/** Concrete backend the process is currently dispatching to. */
LineBackendKind activeLineBackend();

/**
 * Parse "auto"/"scalar"/"avx2"/"neon"; nullopt on anything else.
 */
std::optional<LineBackendKind> parseLineBackendName(
    const std::string &name);

/** Canonical lowercase name of @p kind ("auto" for Auto). */
const char *lineBackendName(LineBackendKind kind);

/**
 * The concrete backends this process can dispatch to (scalar always,
 * avx2/neon when available) — what the differential tests and the
 * per-backend micro benchmarks iterate over.
 */
std::vector<LineBackendKind> availableLineBackends();

/** Scalar reference ops table (defined in line_kernels.cc). */
const LineKernelOps *scalarLineKernelOps();

/**
 * The AVX2 ops table, or null when not compiled in. Defined by
 * line_kernels_avx2.cc (real) or line_kernels_avx2_stub.cc (null)
 * depending on the DEUCE_AVX2 CMake option; everything else goes
 * through lineBackendOps().
 */
const LineKernelOps *avx2LineKernelOps();

/**
 * The NEON ops table, or null when not compiled in. Defined by
 * line_kernels_neon.cc (real) or line_kernels_neon_stub.cc (null)
 * depending on the DEUCE_NEON CMake option.
 */
const LineKernelOps *neonLineKernelOps();

namespace detail
{

/** Cached active ops table; null until first resolution. */
extern std::atomic<const LineKernelOps *> g_activeLineOps;

/** Slow path: resolve the default backend and cache its table. */
const LineKernelOps &resolveActiveLineOps();

/**
 * Shared per-word select (line_kernels.cc): each limb's word-mask
 * bits index a table of widened limb masks, then every limb is one
 * AND-OR blend. Every backend's table points here; lane-mask SIMD
 * versions were no faster end to end.
 */
void selectWords(const CacheLine &a, const CacheLine &b,
                 uint64_t word_mask, unsigned word_bits, CacheLine &out);

/**
 * Portable positional popcount (line_kernels.cc) for backends without
 * their own accumulateFlipsBatch: 512 byte counters packed eight to a
 * 64-bit word, where one shift and mask of a limb adds one bit
 * position of all eight of its bytes, flushed into @p counters once
 * per 255 lines.
 */
void positionalFlipAccumulate(const CacheLine *diffs, std::size_t n,
                              uint64_t *counters);

/**
 * Shared MLC2 kernels (line_kernels.cc). The cell-pair spreading and
 * the 16-bucket transition histogram are pure SWAR bit-plane logic
 * with no wide-vector win on current targets, so every backend table
 * points at the same implementations — still bit-identical across
 * backends by construction.
 */
unsigned mlcCellDiffExpand(const CacheLine &diff, CacheLine &cell_mask);
void mlcTransitionAccumulate(const CacheLine &before,
                             const CacheLine &after, uint64_t *counts);

} // namespace detail

/**
 * The active backend's ops table — the one-load fast path every hot
 * call site (CacheLine::popcount, makeWriteResult, applyFnw, ...)
 * dispatches through.
 */
inline const LineKernelOps &
lineKernels()
{
    const LineKernelOps *ops =
        detail::g_activeLineOps.load(std::memory_order_acquire);
    return ops != nullptr ? *ops : detail::resolveActiveLineOps();
}

} // namespace deuce

#endif // DEUCE_COMMON_LINE_KERNELS_HH
