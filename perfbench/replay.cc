/**
 * @file
 * replay_deuce: one thread drives a MemorySystem (DEUCE, real AES on
 * the auto backend, vertical wear leveling off) with partial-word
 * updates over a 65,536-line working set.
 *
 * Traffic is 75% writes and 25% reads over uniform addresses. Each
 * write XORs a geometric number of random 64-bit words (mean 2) into
 * the line's current plaintext. Consecutive writes go to writeBatch
 * in bursts of up to 64; a read ends a burst. Every read is checked
 * against the benchmark's shadow copy.
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "tracing.hh"

namespace perfbench
{

namespace
{

using deuce::CacheLine;

constexpr uint64_t kLines = 65536;
constexpr uint64_t kOpsPerRound = uint64_t{1} << 20;
constexpr size_t kChunkOps = 16384;
constexpr unsigned kMaxBurst = 64;

/** Digest of the round's final counters for the default seed. */
constexpr const char *kPinnedSignature = "3a6b7446181c2950";

/** A line's plaintext before its first write. */
CacheLine
initialLine(uint64_t seed, uint64_t addr)
{
    CacheLine line;
    uint64_t x = mix64(seed ^ (addr * 0x9e3779b97f4a7c15ull));
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x = mix64(x);
        line.limb(i) = x;
    }
    return line;
}

/** One step of a chunk: a burst of writes, or one read. */
struct Step
{
    uint32_t addr = 0;   ///< read address
    uint32_t writes = 0; ///< burst length; 0 marks a read
};

/** A bounded slice of the op stream, generated before it runs. */
struct Chunk
{
    std::vector<deuce::WriteRequest> writes;
    std::vector<Step> steps;
    std::vector<CacheLine> expected; ///< per read, in order
    uint64_t ops = 0;
};

/** The seeded op stream of one round, produced chunk by chunk. */
class OpStream
{
  public:
    explicit OpStream(uint64_t seed) : seed_(seed), shadow_(kLines) {}

    void
    restart()
    {
        rng_ = deuce::Rng(mix64(seed_ ^ 0x7265706c6179ull));
        for (uint64_t a = 0; a < kLines; ++a) {
            shadow_[a] = initialLine(seed_, a);
        }
        produced_ = 0;
    }

    /** Fill @p c with the next chunk; false once the round is done. */
    bool
    next(Chunk &c)
    {
        c.writes.clear();
        c.steps.clear();
        c.expected.clear();
        c.ops = 0;
        uint32_t open = 0; // writes in the burst being built
        auto closeBurst = [&] {
            if (open) {
                c.steps.push_back(Step{0, open});
                open = 0;
            }
        };
        while (c.ops < kChunkOps && produced_ < kOpsPerRound) {
            uint64_t addr = rng_.nextBounded(kLines);
            if (rng_.nextBounded(4) == 0) {
                closeBurst();
                c.steps.push_back(Step{static_cast<uint32_t>(addr), 0});
                c.expected.push_back(shadow_[addr]);
            } else {
                CacheLine data = shadow_[addr];
                unsigned words = rng_.nextPositiveGeometric(2.0);
                for (unsigned w = 0; w < words && w < 8; ++w) {
                    data.limb(static_cast<unsigned>(rng_.nextBounded(8))) ^=
                        rng_.next();
                }
                shadow_[addr] = data;
                c.writes.push_back(deuce::WriteRequest{addr, data});
                if (++open == kMaxBurst) {
                    closeBurst();
                }
            }
            ++c.ops;
            ++produced_;
        }
        closeBurst();
        return c.ops > 0;
    }

  private:
    uint64_t seed_;
    deuce::Rng rng_;
    std::vector<CacheLine> shadow_;
    uint64_t produced_ = 0;
};

/** The program under test: engine, scheme and memory, built in order. */
struct Program
{
    std::unique_ptr<deuce::OtpEngine> engine;
    std::unique_ptr<deuce::EncryptionScheme> scheme;
    std::unique_ptr<deuce::MemorySystem> memory;
};

Program
buildProgram(uint64_t seed, bool traced)
{
    Program p;
    p.engine = deuce::makeAesOtpEngine(mix64(seed ^ 0x6b6579ull));
    if (traced) {
        auto otp = std::make_unique<tracing::TracedOtpEngine>(*p.engine);
        auto inner = deuce::makeScheme("deuce", *otp);
        p.scheme = std::make_unique<tracing::TracedScheme>(
            std::move(otp), std::move(inner));
    } else {
        p.scheme = deuce::makeScheme("deuce", *p.engine);
    }
    deuce::WearLevelingConfig wl;
    wl.verticalEnabled = false;
    p.memory = std::make_unique<deuce::MemorySystem>(
        *p.scheme, wl, deuce::PcmConfig{},
        [seed](uint64_t addr) { return initialLine(seed, addr); });
    return p;
}

/** Install the working set with one read per line; returns failures. */
uint64_t
install(deuce::MemorySystem &memory, uint64_t seed)
{
    uint64_t failed = 0;
    for (uint64_t a = 0; a < kLines; ++a) {
        failed += memory.read(a) != initialLine(seed, a);
    }
    return failed;
}

/** Run one chunk; returns the reads whose plaintext mismatched. */
uint64_t
runChunk(deuce::MemorySystem &memory, const Chunk &c, bool traced,
         LatencyHistogram &readNs)
{
    uint64_t failed = 0;
    size_t w = 0;
    size_t r = 0;
    for (const Step &s : c.steps) {
        if (s.writes) {
            std::span<const deuce::WriteRequest> burst(c.writes.data() + w,
                                                       s.writes);
            w += s.writes;
            tracing::Span span(tracing::Boundary::SimWriteBatch);
            span.items(s.writes);
            memory.writeBatch(burst);
            continue;
        }
        CacheLine got;
        if (traced) {
            tracing::Span span(tracing::Boundary::SimRead);
            got = memory.read(s.addr);
        } else {
            uint64_t t0 = nowNs();
            got = memory.read(s.addr);
            readNs.add(nowNs() - t0);
        }
        failed += got != c.expected[r++];
    }
    return failed;
}

/** The batch-1 sequential replay of one round: its final digest. */
std::string
sequentialReference(uint64_t seed)
{
    Program p = buildProgram(seed, false);
    install(*p.memory, seed);
    OpStream stream(seed);
    stream.restart();
    Chunk c;
    while (stream.next(c)) {
        size_t w = 0;
        for (const Step &s : c.steps) {
            if (s.writes == 0) {
                p.memory->read(s.addr);
                continue;
            }
            for (uint32_t i = 0; i < s.writes; ++i, ++w) {
                p.memory->write(c.writes[w].lineAddr, c.writes[w].data);
            }
        }
    }
    return digest(p.memory->counters().deterministicSignature());
}

} // namespace

Report
runReplayDeuce(const Options &opt)
{
    Report report;
    RoundPlan plan(opt);
    OpStream stream(opt.seed);
    Chunk chunk;

    std::vector<double> setupS;
    LatencyHistogram readNs;
    uint64_t tracedTrafficNs = 0;
    std::string firstDigest;

    while (plan.more()) {
        bool traced = plan.traced();
        releaseFreedMemory();
        uint64_t t0 = nowNs();
        Program p = buildProgram(opt.seed, traced);
        uint64_t installFailed = install(*p.memory, opt.seed);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        report.attempted += kLines;
        report.failed += installFailed;

        stream.restart();
        tracing::setSpans(traced);
        tracing::setPairs(traced);
        uint64_t roundNs = 0;
        uint64_t roundOps = 0;
        uint64_t roundFailed = 0;
        while (stream.next(chunk)) {
            uint64_t c0 = nowNs();
            roundFailed += runChunk(*p.memory, chunk, traced, readNs);
            roundNs += nowNs() - c0;
            roundOps += chunk.ops;
        }
        tracing::setSpans(false);
        tracing::setPairs(false);

        const deuce::MemoryCounters &mc = p.memory->counters();
        if (!agreesWithFirstRound(report, firstDigest,
                                  digest(mc.deterministicSignature()))) {
            roundFailed = roundOps;
        }
        if (traced && plan.tracedRounds() == 0) {
            reportPcm(report, mc);
        }
        tracedTrafficNs += traced ? roundNs : 0;
        report.attempted += roundOps;
        report.failed += roundFailed;
        plan.finish(roundOps, roundNs);
    }
    // Before the reference replay, whose buffers are the benchmark's.
    double peakRss = peakRssMb();

    checkSignature(report, opt, firstDigest, kPinnedSignature,
                   [&] { return sequentialReference(opt.seed); });

    if (!opt.trace) {
        report.note("requests are read() calls");
        reportEndToEnd(report, plan, readNs.percentile(0.50),
                       readNs.percentile(0.99), readNs.count(), setupS,
                       peakRss);
        return report;
    }

    unsigned tracedRounds = plan.tracedRounds();
    tracing::Aggregate agg = tracing::collect();
    tracing::reportCryptoEnc(report, agg, tracedRounds);
    tracing::reportLineKernels(report);
    const auto &batch =
        agg[static_cast<size_t>(tracing::Boundary::SimWriteBatch)];
    const auto &read = agg[static_cast<size_t>(tracing::Boundary::SimRead)];
    uint64_t simTotal = batch.totalNs + read.totalNs;
    uint64_t simSelf = batch.selfNs + read.selfNs;
    report.add("sim.self_s",
               static_cast<double>(simSelf) / tracedRounds / 1e9, "s");
    report.add("sim.lines_per_batch",
               batch.calls ? static_cast<double>(batch.items) /
                                 static_cast<double>(batch.calls)
                           : 0.0,
               "count");
    report.add("sim.write_batch_us_p50", batch.ns.percentile(0.50) / 1e3,
               "us");
    report.add("sim.write_batch_us_p99", batch.ns.percentile(0.99) / 1e3,
               "us");
    report.add("sim.read_us_p50", read.ns.percentile(0.50) / 1e3, "us");
    report.add("sim.read_us_p99", read.ns.percentile(0.99) / 1e3, "us");
    report.add("trace_overhead_frac", plan.traceOverhead(), "frac");

    // The three self times partition the MemorySystem call spans; set
    // them against the traced rounds' measured traffic time, which
    // also holds the benchmark's own loop and read checks.
    uint64_t layered = simSelf;
    for (auto b : {tracing::Boundary::EncInstall, tracing::Boundary::EncWrite,
                   tracing::Boundary::EncPlanWritePads,
                   tracing::Boundary::EncGeneratePads,
                   tracing::Boundary::EncWriteWithPads,
                   tracing::Boundary::EncRead,
                   tracing::Boundary::CryptoPads}) {
        layered += agg[static_cast<size_t>(b)].selfNs;
    }
    report.note("enc.self + crypto.self + sim.self = " +
                jsonNumber(static_cast<double>(layered) / 1e9) +
                " s; MemorySystem call spans " +
                jsonNumber(static_cast<double>(simTotal) / 1e9) +
                " s; traced traffic time " +
                jsonNumber(static_cast<double>(tracedTrafficNs) / 1e9) +
                " s; accounted " +
                jsonNumber(static_cast<double>(layered) /
                           static_cast<double>(tracedTrafficNs)) +
                " of it over " + std::to_string(tracedRounds) +
                " traced rounds");
    report.samples.emplace_back("sim.write_batch", batch.calls);
    report.samples.emplace_back("sim.read", read.calls);
    return report;
}

} // namespace perfbench
