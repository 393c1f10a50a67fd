/**
 * @file
 * Per-bit-position wear accounting.
 *
 * PCM cells wear out per flip. Vertical wear leveling (Start-Gap and
 * friends) equalises wear *across* lines, so the residual lifetime
 * limiter is the variation of flips across bit positions *within* a
 * line (Figure 12 of the paper). The tracker accumulates flips per
 * physical bit position, summed over all lines; horizontal wear
 * leveling changes the logical-to-physical bit mapping via a per-line
 * rotation that the caller supplies with each write.
 */

#ifndef DEUCE_PCM_WEAR_TRACKER_HH
#define DEUCE_PCM_WEAR_TRACKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/cache_line.hh"
#include "pcm/config.hh"

namespace deuce
{

/** Accumulates cell flips per physical bit position within the line. */
class WearTracker
{
  public:
    /**
     * Number of tracked metadata positions. Bits [0, 64) are the
     * per-line tracking bits (DEUCE flip/modified flags); bits
     * [64, 128) are scheme auxiliary words (VCC coset-selection
     * ciphertext). Metadata arrays are SLC in every cell-tech model.
     */
    static constexpr unsigned kMetaBits = 128;

    /**
     * @param tech cell technology of the data array. Under MLC2,
     * programming a cell rewrites its whole 2-level-bit group, so a
     * diff touching either bit of a cell wears both positions of
     * that cell. The expansion happens on the *physical* (post-
     * rotation) mask — with odd rotations, logical bit pairs do not
     * stay cell-aligned, and the device pairs physical positions.
     */
    explicit WearTracker(CellTech tech = CellTech::SLC);

    /**
     * Record the cell flips of one line write.
     *
     * @param diff       XOR of old and new stored data images, in
     *                   logical bit positions
     * @param meta_diff  XOR of old and new per-line metadata bits
     *                   (tracked as meta positions [0, 64))
     * @param rotation   horizontal-wear-leveling rotation currently
     *                   applied to the line: logical bit b lives at
     *                   physical position (b + rotation) % 512
     * @param coset_diff XOR of old and new scheme auxiliary bits
     *                   (meta positions [64, 128)); 0 for schemes
     *                   without an auxiliary word
     */
    void recordWrite(const CacheLine &diff, uint64_t meta_diff,
                     unsigned rotation = 0, uint64_t coset_diff = 0);

    /**
     * Record the cell flips of @p n line writes at once, through the
     * cross-line kernel entry points (positional popcount);
     * recordWrite() is this with n = 1.
     * @p phys_diffs are *physical* diff masks — the caller has already
     * applied each line's rotation — paired with @p meta_diffs and
     * (optionally, null = all zero) @p coset_diffs. Exact integer
     * accounting, so the totals and per-position counters are
     * bit-identical to n recordWrite() calls in any order.
     */
    void recordWriteBatch(const CacheLine *phys_diffs,
                          const uint64_t *meta_diffs, std::size_t n,
                          const uint64_t *coset_diffs = nullptr);

    /** Total line writes recorded. */
    uint64_t writes() const { return writes_; }

    /** Total data-cell flips recorded. */
    uint64_t totalDataFlips() const { return totalDataFlips_; }

    /** Total metadata-cell flips recorded. */
    uint64_t totalMetaFlips() const { return totalMetaFlips_; }

    /** Flips recorded at physical data bit position @p pos. */
    uint64_t positionFlips(unsigned pos) const { return dataFlips_[pos]; }

    /** Flips recorded for metadata bit @p pos. */
    uint64_t metaPositionFlips(unsigned pos) const
    {
        return metaFlips_[pos];
    }

    /** Mean flips per data bit position. */
    double meanPositionFlips() const;

    /** Largest flips at any data bit position. */
    uint64_t maxPositionFlips() const;

    /**
     * Ratio of the hottest data position to the mean — the
     * non-uniformity factor of Figure 12 (1.0 = perfectly uniform).
     */
    double nonUniformity() const;

    /**
     * Per-position flip counts normalised to the mean, for plotting
     * Figure 12 style curves.
     */
    std::vector<double> normalizedProfile() const;

    /**
     * Fold another tracker's counters into this one (exact integer
     * addition, order-independent). Used to merge per-shard trackers
     * into one aggregate view.
     */
    void mergeFrom(const WearTracker &other);

    /** Reset all counters. */
    void clear();

    /** Cell technology this tracker accounts under. */
    CellTech cellTech() const { return tech_; }

  private:
    std::array<uint64_t, CacheLine::kBits> dataFlips_;
    std::array<uint64_t, kMetaBits> metaFlips_;
    uint64_t writes_ = 0;
    uint64_t totalDataFlips_ = 0;
    uint64_t totalMetaFlips_ = 0;
    CellTech tech_ = CellTech::SLC;
};

} // namespace deuce

#endif // DEUCE_PCM_WEAR_TRACKER_HH
