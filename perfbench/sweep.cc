/**
 * @file
 * sweep_fig16: the Figure-16 grid (12 SPEC profiles x encr, encr-fnw,
 * deuce, nofnw; 60,000 writebacks per cell, real AES, timing model
 * on) run through runSweep on two worker threads. For the default
 * seed the grid is exactly bench_fig16's; other seeds re-seed every
 * profile's trace and the pad keys.
 *
 * A request is one cell: its host time runs from the call of the
 * cell's scheme factory to the scheme being dropped, observed through
 * a forwarding scheme injected with SchemeSpec::custom. The same
 * scheme marks the end of the cell's set-up (see CellScheme).
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "enc/scheme_factory.hh"
#include "sim/sweep.hh"
#include "trace/profile.hh"
#include "tracing.hh"

namespace perfbench
{

namespace
{

const char *const kSchemes[] = {"encr", "encr-fnw", "deuce", "nofnw"};
constexpr unsigned kThreads = 2;

/** Digest of the grid's results for the default seed. */
constexpr const char *kPinnedSignature = "5ca078276827fcba";

/** Host times of one cell, ns. */
struct CellTime
{
    uint64_t cellNs = 0;  ///< factory call to scheme dropped
    uint64_t setupNs = 0; ///< factory call to the first install()
};

/** Thread-safe log of the cells the sweep workers ran. */
class CellLog
{
  public:
    void
    add(const CellTime &t)
    {
        std::lock_guard<std::mutex> lock(mu_);
        cells_.push_back(t);
    }

    /** Cells logged since the last take(). */
    std::vector<CellTime>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return std::exchange(cells_, {});
    }

  private:
    std::mutex mu_;
    std::vector<CellTime> cells_;
};

/**
 * The scheme one sweep cell runs on: it forwards every virtual to the
 * scheme its factory built and logs the cell's times when dropped.
 * runExperiment builds the cell's trace generator, MemorySystem and
 * timing model after the factory returns, and the memory system
 * installs a line on its first touch, so the cell's set-up runs from
 * the factory call to the first install(). Untraced cells pay one
 * extra virtual call per scheme call and no clock read outside the
 * first install(). In traced rounds the cell is also a sweep.cell
 * span, the parent of the cell's enc.* and crypto.* spans.
 */
class CellScheme final : public tracing::ForwardingScheme
{
  public:
    CellScheme(std::unique_ptr<deuce::EncryptionScheme> inner, CellLog &log,
               uint64_t start_ns)
        : ForwardingScheme(std::move(inner)), log_(log), startNs_(start_ns),
          span_(tracing::spansOn())
    {
        if (span_) {
            tracing::begin(tracing::Boundary::SweepCell);
        }
    }

    ~CellScheme() override
    {
        if (span_) {
            tracing::end();
        }
        log_.add(CellTime{nowNs() - startNs_, setupNs_});
    }

    void
    install(uint64_t line_addr, const deuce::CacheLine &plaintext,
            deuce::StoredLineState &state) const override
    {
        if (!installed_) {
            installed_ = true;
            setupNs_ = nowNs() - startNs_;
        }
        ForwardingScheme::install(line_addr, plaintext, state);
    }

  private:
    CellLog &log_;
    uint64_t startNs_;
    bool span_;
    // A cell's scheme is used only by the worker that runs the cell.
    mutable bool installed_ = false;
    mutable uint64_t setupNs_ = 0;
};

deuce::SweepSpec
makeSpec(uint64_t seed, bool traced, CellLog *log)
{
    deuce::SweepSpec spec;
    spec.options.writebacks = 60000;
    spec.options.fastOtp = false;
    spec.options.wl.verticalEnabled = false;
    spec.options.timing = true;
    spec.threads = kThreads;
    spec.benchmarks = deuce::spec2006Profiles();
    if (seed != kDefaultSeed) {
        for (deuce::BenchmarkProfile &p : spec.benchmarks) {
            p.seed = mix64(seed ^ p.seed);
        }
        spec.options.otpSeed = mix64(seed ^ 0x6b6579ull);
    }
    for (const char *id : kSchemes) {
        std::string scheme = id;
        // The label equals the factory id, so each cell derives the
        // same pad seed as the id-keyed bench_fig16 grid.
        spec.schemes.push_back(deuce::SchemeSpec::custom(
            scheme, [scheme, traced, log](const deuce::OtpEngine &otp)
                        -> std::unique_ptr<deuce::EncryptionScheme> {
                uint64_t start = nowNs();
                std::unique_ptr<deuce::EncryptionScheme> inner;
                if (traced) {
                    auto wrapped =
                        std::make_unique<tracing::TracedOtpEngine>(otp);
                    auto built = deuce::makeScheme(scheme, *wrapped);
                    inner = std::make_unique<tracing::TracedScheme>(
                        std::move(wrapped), std::move(built));
                } else {
                    inner = deuce::makeScheme(scheme, otp);
                }
                return std::make_unique<CellScheme>(std::move(inner), *log,
                                                    start);
            }));
    }
    return spec;
}

/** Every result field of every cell, scheme-major, all digits. */
std::string
gridSignature(const std::vector<deuce::ExperimentRow> &rows)
{
    std::string out;
    for (const deuce::ExperimentRow &r : rows) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s/%s flip=%.17g slots=%.17g exec=%.17g pj=%.17g "
                      "edp=%.17g maxflip=%.17g nonuni=%.17g ccmiss=%.17g "
                      "wb=%llu rd=%llu\n",
                      r.bench.c_str(), r.scheme.c_str(), r.flipPct,
                      r.avgSlots, r.executionNs, r.energyPj, r.edp,
                      r.maxFlipRate, r.wearNonUniformity,
                      r.counterCacheMissRate,
                      static_cast<unsigned long long>(r.writebacks),
                      static_cast<unsigned long long>(r.reads));
        out += buf;
    }
    return out;
}

/** Each cell run serially through runExperiment: the grid digest. */
std::string
sequentialReference(const deuce::SweepSpec &spec)
{
    std::vector<deuce::ExperimentRow> rows;
    for (const char *id : kSchemes) {
        for (const deuce::BenchmarkProfile &p : spec.benchmarks) {
            deuce::ExperimentOptions options = spec.options;
            options.otpSeed =
                deuce::deriveCellSeed(spec.options.otpSeed, p.name, id);
            rows.push_back(deuce::runExperiment(
                p, deuce::schemeFactoryFor(id), options));
        }
    }
    return digest(gridSignature(rows));
}

} // namespace

Report
runSweepFig16(const Options &opt)
{
    Report report;
    RoundPlan plan(opt);
    CellLog log;
    std::vector<double> setupS;
    LatencyHistogram cellNs;         // untraced rounds
    std::vector<double> tracedCellS; // traced rounds
    uint64_t tracedWallNs = 0;
    std::string firstDigest;

    deuce::SweepSpec plain = makeSpec(opt.seed, false, &log);
    deuce::SweepSpec traced = makeSpec(opt.seed, true, &log);
    while (plan.more()) {
        bool tracedRound = plan.traced();
        releaseFreedMemory();
        tracing::setSpans(tracedRound);
        tracing::setPairs(tracedRound);
        uint64_t t0 = nowNs();
        deuce::SweepResult result =
            deuce::runSweep(tracedRound ? traced : plain);
        uint64_t wall = nowNs() - t0;
        tracing::setSpans(false);
        tracing::setPairs(false);

        uint64_t roundOps = 0;
        std::vector<deuce::ExperimentRow> rows = result.flatRows();
        for (const deuce::ExperimentRow &r : rows) {
            roundOps += r.writebacks + r.reads;
        }
        uint64_t roundFailed = 0;
        if (!agreesWithFirstRound(report, firstDigest,
                                  digest(gridSignature(rows)))) {
            roundFailed = roundOps;
        }
        for (const CellTime &c : log.take()) {
            if (tracedRound) {
                tracedCellS.push_back(static_cast<double>(c.cellNs) / 1e9);
            } else {
                cellNs.add(c.cellNs);
                setupS.push_back(static_cast<double>(c.setupNs) / 1e9);
            }
        }
        if (tracedRound && plan.tracedRounds() == 0) {
            const auto &deuceRows = result["deuce"];
            double pj = 0.0;
            for (const deuce::ExperimentRow &r : deuceRows) {
                pj += r.avgWriteEnergyPj;
            }
            report.add("pcm.flip_pct",
                       deuce::averageOf(deuceRows,
                                        &deuce::ExperimentRow::flipPct),
                       "%");
            report.add("pcm.slots_per_write",
                       deuce::averageOf(deuceRows,
                                        &deuce::ExperimentRow::avgSlots),
                       "count");
            report.add("pcm.energy_pj_per_write",
                       pj / static_cast<double>(deuceRows.size()), "pJ");
            report.note("pcm.* are the DEUCE column's means over the "
                        "12 profiles");
        }
        tracedWallNs += tracedRound ? wall : 0;
        report.attempted += roundOps;
        report.failed += roundFailed;
        plan.finish(roundOps, wall);
    }
    // Before the reference replay, whose buffers are the benchmark's.
    double peakRss = peakRssMb();

    checkSignature(report, opt, firstDigest, kPinnedSignature,
                   [&] { return sequentialReference(plain); });

    if (!opt.trace) {
        report.note("requests are sweep cells; with under 1,000 cells "
                    "the p99 is the slowest cells' time");
        reportEndToEnd(report, plan, cellNs.percentile(0.50),
                       cellNs.percentile(0.99), cellNs.count(), setupS,
                       peakRss);
        return report;
    }

    unsigned tracedRounds = plan.tracedRounds();
    tracing::Aggregate agg = tracing::collect();
    tracing::reportCryptoEnc(report, agg, tracedRounds);
    tracing::reportLineKernels(report);
    const auto &cell = agg[static_cast<size_t>(tracing::Boundary::SweepCell)];
    double maxCell = 0.0;
    double sumCell = 0.0;
    for (double s : tracedCellS) {
        maxCell = std::max(maxCell, s);
        sumCell += s;
    }
    report.add("sweep.cell_s_p50", median(tracedCellS), "s");
    report.add("sweep.cell_s_max", maxCell, "s");
    report.add("sweep.thread_busy_frac",
               sumCell * 1e9 / (kThreads * static_cast<double>(tracedWallNs)),
               "frac");
    report.add("sweep.cell_self_s",
               static_cast<double>(cell.selfNs) / tracedRounds / 1e9, "s");
    report.add("trace_overhead_frac", plan.traceOverhead(), "frac");
    report.samples.emplace_back("sweep.cell", tracedCellS.size());
    return report;
}

} // namespace perfbench
