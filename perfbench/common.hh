/**
 * @file
 * Shared pieces of the host-time benchmark: the host clock, a
 * log-linear latency histogram, the result report and its JSON line,
 * and small helpers (medians, peak RSS, signature digests).
 *
 * Every time here is host time (std::chrono::steady_clock). Simulated
 * device figures (flips, slots, pJ) come from the program's own
 * counters and are never mixed with it.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace deuce
{
class MemoryCounters;
} // namespace deuce

namespace perfbench
{

/** Host steady clock in nanoseconds. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seed the benchmark's pinned signatures were recorded with. */
constexpr uint64_t kDefaultSeed = 1;

/** SplitMix64 finalizer: derives independent sub-seeds. */
uint64_t mix64(uint64_t x);

/** FNV-1a digest of a signature string, as 16 hex digits. */
std::string digest(const std::string &text);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Return freed heap memory of every malloc arena to the system. Run
 * before each round, so the peak RSS is one round's footprint and not
 * fragmentation left across arenas by earlier rounds' threads.
 */
void releaseFreedMemory();

/**
 * Latency histogram with 64 linear sub-buckets per power of two
 * (relative bucket width under 1.6%), exact integer counts, and
 * percentiles interpolated linearly inside the bucket that holds the
 * target rank. Fixed memory at any sample count. The program's
 * obs::Log2Histogram has one bucket per power of two, too coarse for
 * a percentile held to a bound of a few percent.
 */
class LatencyHistogram
{
  public:
    void add(uint64_t ns);
    void merge(const LatencyHistogram &other);

    uint64_t count() const { return count_; }

    /** Value at quantile @p q in [0, 1], in the samples' unit. */
    double percentile(double q) const;

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kBuckets = kSub + (64 - kSubBits) * kSub;

    static unsigned indexOf(uint64_t v);
    static double bucketLo(unsigned i);
    static double bucketHi(unsigned i);

    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
};

/** Where a traced run writes its Chrome-trace sample. */
constexpr const char *kTraceDir = ".bench_build/perfbench/traces";

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The outcome of one workload run. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** A final signature differed from its pinned or reference value. */
    bool signatureMismatch = false;
    std::vector<Metric> metrics;
    /** Sample count behind each reported median or percentile. */
    std::vector<std::pair<std::string, uint64_t>> samples;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit);
    void note(const std::string &line);
};

/** Write a metric value with every significant digit. */
std::string jsonNumber(double v);

/** Escape @p s as a JSON string literal (quotes included). */
std::string jsonString(const std::string &s);

/**
 * The rounds of one run. Every round repeats the same seeded work on
 * a freshly set-up program, so each round must end in the same
 * signature. Rounds continue until their measured time reaches
 * --seconds (at least kMinRounds). A traced run alternates untraced
 * and traced rounds, so the tracing overhead is measured under the
 * same host conditions.
 */
class RoundPlan
{
  public:
    static constexpr unsigned kMinRounds = 3;

    explicit RoundPlan(const Options &opt) : opt_(opt) {}

    bool
    more() const
    {
        return rounds_ < kMinRounds ||
               static_cast<double>(measuredNs_) < opt_.seconds * 1e9;
    }

    /** Whether the round about to run is traced. */
    bool traced() const { return opt_.trace && rounds_ % 2 == 1; }

    /** Close the current round: @p ops operations in @p ns measured. */
    void
    finish(uint64_t ops, uint64_t ns)
    {
        bool t = traced();
        ops_[t] += ops;
        ns_[t] += ns;
        tracedRounds_ += t;
        measuredNs_ += ns;
        ++rounds_;
    }

    unsigned tracedRounds() const { return tracedRounds_; }

    /** Operations per measured second of the untraced or traced rounds. */
    double
    opsPerSecond(bool traced_rounds) const
    {
        return ns_[traced_rounds]
                   ? static_cast<double>(ops_[traced_rounds]) * 1e9 /
                         static_cast<double>(ns_[traced_rounds])
                   : 0.0;
    }

    /** 1 - traced / untraced throughput: the cost of tracing. */
    double
    traceOverhead() const
    {
        return 1.0 - opsPerSecond(true) / opsPerSecond(false);
    }

  private:
    const Options &opt_;
    unsigned rounds_ = 0;
    unsigned tracedRounds_ = 0;
    uint64_t measuredNs_ = 0;
    uint64_t ops_[2] = {0, 0}; ///< by traced
    uint64_t ns_[2] = {0, 0};  ///< by traced
};

/**
 * Check one round's signature digest against the first round's
 * (@p first, filled by the first call). Every round replays the same
 * inputs, so a differing round is a wrong result: it is noted and
 * flagged as a mismatch. Returns whether the round agreed.
 */
bool agreesWithFirstRound(Report &report, std::string &first,
                          const std::string &round_digest);

/**
 * Add the end-to-end metrics of an untraced run: ops_per_s from
 * @p plan, req_p50_us and req_p99_us from @p p50_ns and @p p99_ns
 * (taken over @p requests samples), the median of @p setup_s, and
 * @p peak_rss_mb, read when the rounds ended and before any reference
 * replay; record their sample counts.
 */
void reportEndToEnd(Report &report, const RoundPlan &plan, double p50_ns,
                    double p99_ns, uint64_t requests,
                    const std::vector<double> &setup_s,
                    double peak_rss_mb);

/** Add the pcm.* device-clock metrics of @p counters. */
void reportPcm(Report &report, const deuce::MemoryCounters &counters);

/**
 * Compare the run's final signature digest; notes it, and on a
 * mismatch flags it and fails every attempted operation.
 */
void recordSignature(Report &report, const std::string &observed,
                     const std::string &expected,
                     const std::string &source);

/**
 * Check a workload's final signature: against @p pinned for the
 * default seed, otherwise against @p reference() (computed only
 * then), recording the outcome in @p report.
 */
template <typename ReferenceFn>
void
checkSignature(Report &report, const Options &opt,
               const std::string &observed, const std::string &pinned,
               ReferenceFn reference)
{
    if (opt.seed == kDefaultSeed) {
        recordSignature(report, observed, pinned, "pinned");
    } else {
        recordSignature(report, observed, reference(),
                        "sequential reference");
    }
}

/** Entry points of the three workloads. */
Report runReplayDeuce(const Options &opt);
Report runSweepFig16(const Options &opt);
Report runServeMixed(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
