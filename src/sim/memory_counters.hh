/**
 * @file
 * MemoryCounters: the shard-local accounting state of a MemorySystem.
 *
 * Everything a MemorySystem counts — energy, per-bit wear, flip/slot
 * running stats and histograms, per-bank counters — lives here, split
 * out of the system itself so the sharded serving core
 * (serve/sharded_memory_system.hh) can merge N shard-local instances
 * into one aggregate view. Merging is exact integer addition for every
 * counter and histogram bucket (order-independent); only the
 * floating-point summary means of the RunningStats depend on merge
 * order, which is why aggregates are always merged in ascending shard
 * order and the serving determinism gate compares the integer
 * signature, never a merged mean.
 */

#ifndef DEUCE_SIM_MEMORY_COUNTERS_HH
#define DEUCE_SIM_MEMORY_COUNTERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "enc/scheme.hh"
#include "obs/stat.hh"
#include "pcm/config.hh"
#include "pcm/energy.hh"
#include "pcm/wear_tracker.hh"

namespace deuce
{

/** Per-bank accounting (address-interleaved, lineAddr % banks). */
struct BankCounters
{
    uint64_t writes = 0; ///< line writebacks landing on the bank
    uint64_t reads = 0;  ///< line reads serviced by the bank
    uint64_t flips = 0;  ///< cell flips charged to the bank
    uint64_t slots = 0;  ///< write slots the bank serviced
};

/** The mergeable accounting state of one memory-system shard. */
class MemoryCounters
{
  public:
    explicit MemoryCounters(const PcmConfig &pcm = PcmConfig{});

    /**
     * Charge one line writeback, all but its wear: the write pipeline
     * charges each line in request order through this (the
     * RunningStat means are order-sensitive) and lands the whole
     * burst's wear in one noteWearBatch() call (wear is exact integer
     * accounting, hence order-free).
     * @param line_addr     line address (decides the bank)
     * @param result        the scheme's flip accounting
     * @param slots         write slots consumed
     * @param flip_fraction fraction of the 512 line bits flipped
     */
    void noteWriteNoWear(uint64_t line_addr, const WriteResult &result,
                         unsigned slots, double flip_fraction);

    /**
     * Record one burst's wear through the cross-line kernels.
     * @p phys_diffs are pre-rotated (physical) data diff masks;
     * @p coset_diffs (null = all zero) are the schemes' auxiliary-word
     * diffs (wear meta positions [64, 128)).
     */
    void noteWearBatch(const CacheLine *phys_diffs,
                       const uint64_t *meta_diffs, std::size_t n,
                       const uint64_t *coset_diffs = nullptr);

    /**
     * Charge one MLC2 write's data-cell transition histogram
     * (common/line_kernels.hh mlcTransitionCounts layout) to the
     * energy model. Only called when the device is MLC2; under MLC2
     * noteWriteNoWear charges the *metadata* flips at the SLC per-bit
     * rate and the data cells are priced here through
     * the per-transition matrix.
     */
    void noteMlcTransitions(const uint64_t *counts);

    /** Charge one line read. */
    void noteRead(uint64_t line_addr);

    /**
     * Charge metadata-array traffic from the counter-persistence
     * model. No-op totals when the persist model is off, leaving
     * every existing number (and the signature) untouched.
     */
    void notePersist(uint64_t meta_reads, uint64_t meta_writes);

    const EnergyAccumulator &energy() const { return energy_; }
    const WearTracker &wear() const { return wear_; }
    const RunningStat &flipStat() const { return flipStat_; }
    const RunningStat &slotStat() const { return slotStat_; }
    const obs::Log2Histogram &slotHistogram() const { return slotHist_; }
    const obs::Log2Histogram &flipHistogram() const { return flipHist_; }

    /** Counters of bank @p bank (0 .. numBanks()-1). */
    const BankCounters &bank(unsigned bank) const;

    unsigned numBanks() const
    {
        return static_cast<unsigned>(banks_.size());
    }

    /** Total write slots serviced (exact integer, summed over banks). */
    uint64_t totalWriteSlots() const;

    /** Total line reads serviced (exact integer, summed over banks). */
    uint64_t totalReads() const;

    /**
     * Fold another shard's counters into this one. Callers merge in
     * ascending shard order so the floating-point summary stats are
     * reproducible run to run.
     */
    void mergeFrom(const MemoryCounters &other);

    /**
     * The order-invariant integer portion of the counters as one
     * comparable string: writes/reads/flips/slots totals, the energy
     * (computed from integer totals, hence bit-identical), wear
     * totals, per-bank counters, and the histogram buckets. Two
     * executions of the same request stream — sequential or sharded,
     * any shard count, any worker interleave — must produce equal
     * signatures as long as per-line request order is preserved; this
     * string is what the serving determinism gate diffs.
     */
    std::string deterministicSignature() const;

  private:
    EnergyAccumulator energy_;
    WearTracker wear_;
    CellTech cellTech_ = CellTech::SLC;
    RunningStat flipStat_;
    RunningStat slotStat_;
    obs::Log2Histogram slotHist_;
    obs::Log2Histogram flipHist_;
    std::vector<BankCounters> banks_;
};

} // namespace deuce

#endif // DEUCE_SIM_MEMORY_COUNTERS_HH
