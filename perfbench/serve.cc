/**
 * @file
 * serve_mixed: a ShardedMemorySystem (DEUCE, real AES, 2 shards,
 * 4 tenants) driven by one client thread in a closed loop with 64
 * requests outstanding, as a CPU waits for its memory with bounded
 * memory-level parallelism.
 *
 * Traffic is 50% reads; addresses are Zipf(0.9) over 16,384 lines per
 * tenant; writes are partial-word updates of the line's current
 * plaintext. Set-up installs the working set with a warm-up pass of
 * one read per line. Every read's Completion::data is checked against
 * the benchmark's shadow copy.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "common/rng.hh"
#include "serve/sharded_memory_system.hh"
#include "serve/tenant_scheme.hh"
#include "tracing.hh"

namespace perfbench
{

namespace
{

using deuce::CacheLine;
using deuce::serve::Completion;
using deuce::serve::ReqOp;
using deuce::serve::Request;
using deuce::serve::ShardedMemorySystem;

constexpr unsigned kTenants = 4;
constexpr uint64_t kLinesPerTenant = 16384;
constexpr uint64_t kRequestsPerRound = uint64_t{1} << 19;
constexpr size_t kChunkRequests = 16384;
constexpr size_t kWindow = 64;
/** Every 64th request keeps its raw spans for the Chrome trace. */
constexpr uint64_t kSampleStride = 64;

/** Digest of the round's aggregate counters for the default seed. */
constexpr const char *kPinnedSignature = "65bc396a0209bb33";

deuce::serve::ServeConfig
serveConfig(uint64_t seed)
{
    deuce::serve::ServeConfig cfg;
    cfg.scheme = "deuce";
    cfg.shards = 2;
    cfg.tenants = kTenants;
    cfg.fastOtp = false;
    if (seed != kDefaultSeed) {
        cfg.masterSeed = mix64(seed ^ 0x6b6579ull);
    }
    return cfg;
}

/** A bounded slice of requests with the plaintext each read expects. */
struct Chunk
{
    std::vector<Request> requests;
    std::vector<CacheLine> expected; ///< by position; reads only
};

/** The warm-up pass: one read of every line of every tenant. */
Chunk
warmupChunk()
{
    Chunk c;
    for (unsigned t = 0; t < kTenants; ++t) {
        for (uint64_t a = 0; a < kLinesPerTenant; ++a) {
            Request r;
            r.op = ReqOp::Read;
            r.tenant = static_cast<uint16_t>(t);
            r.addr = a;
            c.requests.push_back(r);
        }
    }
    c.expected.assign(c.requests.size(), CacheLine{}); // installs zero
    return c;
}

/** The seeded request stream of one round, produced chunk by chunk. */
class RequestStream
{
  public:
    explicit RequestStream(uint64_t seed)
        : seed_(seed), zipf_(kLinesPerTenant, 0.9),
          shadow_(kTenants * kLinesPerTenant)
    {}

    void
    restart()
    {
        rng_ = deuce::Rng(mix64(seed_ ^ 0x7365727665ull));
        std::fill(shadow_.begin(), shadow_.end(), CacheLine{});
        produced_ = 0;
    }

    bool
    next(Chunk &c)
    {
        c.requests.clear();
        c.expected.clear();
        while (c.requests.size() < kChunkRequests &&
               produced_ < kRequestsPerRound) {
            Request r;
            r.tenant = static_cast<uint16_t>(rng_.nextBounded(kTenants));
            r.addr = zipf_.sample(rng_);
            CacheLine &line = shadow_[r.tenant * kLinesPerTenant + r.addr];
            if (rng_.nextBounded(2) == 0) {
                r.op = ReqOp::Read;
                c.expected.push_back(line);
            } else {
                r.op = ReqOp::Write;
                unsigned words = rng_.nextPositiveGeometric(2.0);
                for (unsigned w = 0; w < words && w < 8; ++w) {
                    line.limb(static_cast<unsigned>(rng_.nextBounded(8))) ^=
                        rng_.next();
                }
                r.data = line;
                c.expected.emplace_back();
            }
            c.requests.push_back(r);
            ++produced_;
        }
        return !c.requests.empty();
    }

  private:
    uint64_t seed_;
    deuce::ZipfSampler zipf_;
    deuce::Rng rng_;
    std::vector<CacheLine> shadow_;
    uint64_t produced_ = 0;
};

/** Client-side measurements of one run. */
struct ClientStats
{
    LatencyHistogram requestNs; ///< submit to reap (untraced rounds)
    LatencyHistogram applyNs;   ///< submit to Completion::completeNs
    LatencyHistogram cqNs;      ///< completeNs to reap
    uint64_t sqFullRetries = 0;
    uint64_t failed = 0;
};

/**
 * Drive @p c through @p port in a closed loop of kWindow outstanding
 * requests, numbering them from @p seq_base; returns when all are
 * reaped.
 */
void
runChunk(ShardedMemorySystem::ClientPort &port, const Chunk &c,
         uint64_t seq_base, bool traced, ClientStats &stats)
{
    size_t next = 0;
    size_t reaped = 0;
    size_t n = c.requests.size();
    Completion done;
    while (reaped < n) {
        while (next < n && next - reaped < kWindow) {
            Request r = c.requests[next];
            r.seq = seq_base + next;
            r.submitNs = nowNs();
            if (!port.trySubmit(r)) {
                ++stats.sqFullRetries;
                break;
            }
            ++next;
        }
        while (port.tryPoll(done)) {
            uint64_t reapNs = nowNs();
            ++reaped;
            size_t i = done.seq - seq_base;
            if (done.op == ReqOp::Read && done.data != c.expected[i]) {
                ++stats.failed;
            }
            if (!traced) {
                stats.requestNs.add(reapNs - done.submitNs);
                continue;
            }
            stats.applyNs.add(done.completeNs - done.submitNs);
            stats.cqNs.add(reapNs - done.completeNs);
            if (done.seq % kSampleStride == 0) {
                tracing::recordRaw("serve.request", done.seq, done.submitNs,
                                   reapNs, 1, 0);
                tracing::recordRaw("serve.apply_wait", done.seq,
                                   done.submitNs, done.completeNs, 2, 1);
                tracing::recordRaw("serve.cq_wait", done.seq,
                                   done.completeNs, reapNs, 3, 1);
            }
        }
    }
}

/**
 * The batch-1 sequential replay of one round (warm-up, then the
 * stream in submission order) on one MemorySystem built like
 * serve::replaySequential's, through a forwarding scheme that can
 * sample (old, new) ciphertext pairs. Returns the final digest.
 */
std::string
sequentialReference(const deuce::serve::ServeConfig &cfg, uint64_t seed,
                    const Chunk &warmup)
{
    deuce::TenantKeyTable keys(cfg.masterSeed, cfg.tenants, cfg.fastOtp);
    tracing::TracedScheme scheme(
        nullptr, std::make_unique<deuce::serve::TenantScheme>(
                     keys, cfg.scheme, cfg.tenantAddrBits));
    deuce::MemorySystem memory(scheme, cfg.wearLeveling, cfg.pcm,
                               [](uint64_t) { return CacheLine{}; });
    auto apply = [&](const Request &r) {
        uint64_t addr = deuce::serve::TenantScheme::globalAddr(
            r.tenant, r.addr, cfg.tenantAddrBits);
        if (r.op == ReqOp::Read) {
            memory.read(addr);
        } else {
            memory.write(addr, r.data);
        }
    };
    for (const Request &r : warmup.requests) {
        apply(r);
    }
    RequestStream stream(seed);
    stream.restart();
    Chunk c;
    while (stream.next(c)) {
        for (const Request &r : c.requests) {
            apply(r);
        }
    }
    return digest(memory.counters().deterministicSignature());
}

} // namespace

Report
runServeMixed(const Options &opt)
{
    Report report;
    RoundPlan plan(opt);
    deuce::serve::ServeConfig cfg = serveConfig(opt.seed);
    Chunk warmup = warmupChunk();
    RequestStream stream(opt.seed);
    Chunk chunk;
    ClientStats stats;

    std::vector<double> setupS;
    double burstSum = 0.0;
    uint64_t burstCount = 0;
    uint64_t cqStalls = 0;
    uint64_t tracedSqFull = 0;
    double skew = 0.0;
    uint64_t pads = 0;
    std::string firstDigest;

    while (plan.more()) {
        bool traced = plan.traced();
        uint64_t sqFullBefore = stats.sqFullRetries;

        releaseFreedMemory();
        uint64_t t0 = nowNs();
        ShardedMemorySystem srv(cfg);
        ShardedMemorySystem::ClientPort port = srv.addClient();
        srv.start();
        ClientStats setupStats; // the warm-up is set-up, not traffic
        runChunk(port, warmup, 0, false, setupStats);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        uint64_t padsAfterSetup = srv.keys().padsGenerated();

        stream.restart();
        uint64_t seqBase = warmup.requests.size();
        uint64_t roundNs = 0;
        uint64_t roundOps = 0;
        uint64_t failedBefore = stats.failed;
        while (stream.next(chunk)) {
            uint64_t c0 = nowNs();
            runChunk(port, chunk, seqBase, traced, stats);
            roundNs += nowNs() - c0;
            roundOps += chunk.requests.size();
            seqBase += chunk.requests.size();
        }
        srv.stop();

        deuce::MemoryCounters counters = srv.aggregateCounters();
        uint64_t roundFailed =
            setupStats.failed + stats.failed - failedBefore;
        if (!agreesWithFirstRound(report, firstDigest,
                                  digest(counters.deterministicSignature()))) {
            roundFailed = roundOps;
        }
        if (traced) {
            for (unsigned s = 0; s < srv.numShards(); ++s) {
                const auto &h = srv.burstHistogram(s);
                burstSum += h.mean() * static_cast<double>(h.count());
                burstCount += h.count();
            }
            cqStalls += srv.backpressureStalls();
            tracedSqFull += stats.sqFullRetries - sqFullBefore;
            pads = srv.keys().padsGenerated() - padsAfterSetup;
            uint64_t maxShard = 0;
            uint64_t total = 0;
            for (unsigned s = 0; s < srv.numShards(); ++s) {
                const auto &e = srv.shard(s).counters().energy();
                maxShard = std::max(maxShard, e.writes() + e.reads());
                total += e.writes() + e.reads();
            }
            skew = static_cast<double>(maxShard) * srv.numShards() /
                   static_cast<double>(total);
            if (plan.tracedRounds() == 0) {
                reportPcm(report, counters);
            }
        }
        report.attempted += warmup.requests.size() + roundOps;
        report.failed += roundFailed;
        plan.finish(roundOps, roundNs);
    }
    // Before the reference replay, whose buffers are the benchmark's.
    double peakRss = peakRssMb();

    // A traced run always replays the reference: its forwarding
    // scheme is where the line-kernel pairs are sampled.
    std::string reference;
    if (opt.trace || opt.seed != kDefaultSeed) {
        tracing::setPairs(opt.trace);
        reference = sequentialReference(cfg, opt.seed, warmup);
        tracing::setPairs(false);
    }
    checkSignature(report, opt, firstDigest, kPinnedSignature,
                   [&] { return reference; });

    if (!opt.trace) {
        report.note("requests are served requests, submit to reap");
        const LatencyHistogram &req = stats.requestNs;
        reportEndToEnd(report, plan, req.percentile(0.50),
                       req.percentile(0.99), req.count(), setupS, peakRss);
        return report;
    }

    unsigned tracedRounds = plan.tracedRounds();
    report.add("crypto.pads", static_cast<double>(pads), "count");
    tracing::reportLineKernels(report);
    report.add("serve.apply_wait_us_p50", stats.applyNs.percentile(0.50) / 1e3,
               "us");
    report.add("serve.apply_wait_us_p99", stats.applyNs.percentile(0.99) / 1e3,
               "us");
    report.add("serve.cq_wait_us_p50", stats.cqNs.percentile(0.50) / 1e3,
               "us");
    report.add("serve.cq_wait_us_p99", stats.cqNs.percentile(0.99) / 1e3,
               "us");
    report.add("serve.burst_mean",
               burstCount ? burstSum / static_cast<double>(burstCount) : 0.0,
               "count");
    report.add("serve.sq_full_retries",
               static_cast<double>(tracedSqFull) / tracedRounds, "count");
    report.add("serve.cq_stalls", static_cast<double>(cqStalls) / tracedRounds,
               "count");
    report.add("serve.shard_skew", skew, "ratio");
    report.note("serve.sq_full_retries and serve.cq_stalls are 0 by "
                "construction: the client keeps at most " +
                std::to_string(kWindow) +
                " requests outstanding and every SQ and CQ holds " +
                std::to_string(cfg.queueCapacity));
    report.add("trace_overhead_frac", plan.traceOverhead(), "frac");
    report.samples.emplace_back("serve.wait", stats.applyNs.count());
    return report;
}

} // namespace perfbench
