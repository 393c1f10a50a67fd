/**
 * @file
 * Out-of-program tracing: span aggregation and the layer decorators
 * (see tracing.hh).
 */

#include "tracing.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "common/line_kernels.hh"

namespace perfbench
{
namespace tracing
{

std::atomic<bool> g_spans{false};
std::atomic<bool> g_pairs{false};

namespace
{

/** Every 64th request keeps its raw spans, up to kMaxRawSpans. */
constexpr uint64_t kSampleStride = 64;
constexpr size_t kMaxRawSpans = 20000;
constexpr size_t kMaxPairsPerThread = 4096;
constexpr uint64_t kPairStride = 16;

/** One (old, new) stored-ciphertext pair of a write. */
using LinePair = std::pair<deuce::CacheLine, deuce::CacheLine>;

struct RawSpan
{
    const char *name;
    uint32_t tid;
    uint32_t spanId;
    uint32_t parentId;
    uint64_t request;
    uint64_t startNs;
    uint64_t endNs;
};

struct Frame
{
    Boundary boundary;
    uint32_t spanId;
    uint64_t startNs;
    uint64_t childNs;
};

/** One thread's recording state; owned by the registry below. */
struct ThreadState
{
    uint32_t tid = 0;
    Aggregate agg;
    std::vector<Frame> stack;
    uint64_t request = 0;
    bool sampled = false;
    uint32_t nextSpan = 1;
    uint64_t pairCandidates = 0;
    std::vector<LinePair> pairs;
};

std::atomic<uint64_t> g_nextRequest{0};

std::mutex g_registryMu;
// Thread states outlive their threads (sweep workers exit when a
// sweep ends), so the registry owns them.
std::vector<std::unique_ptr<ThreadState>> g_threads;

std::mutex g_rawMu;
std::vector<RawSpan> g_raw;

thread_local ThreadState *t_state = nullptr;

ThreadState &
state()
{
    if (t_state == nullptr) {
        auto fresh = std::make_unique<ThreadState>();
        fresh->stack.reserve(16);
        std::lock_guard<std::mutex> lock(g_registryMu);
        fresh->tid = static_cast<uint32_t>(g_threads.size());
        t_state = fresh.get();
        g_threads.push_back(std::move(fresh));
    }
    return *t_state;
}

void
keepRaw(const RawSpan &span)
{
    std::lock_guard<std::mutex> lock(g_rawMu);
    if (g_raw.size() < kMaxRawSpans) {
        g_raw.push_back(span);
    }
}

} // namespace

const char *
boundaryName(Boundary b)
{
    static const char *const names[kBoundaries] = {
        "sim.write_batch",     "sim.read",
        "enc.install",         "enc.write",
        "enc.plan_write_pads", "enc.generate_pads",
        "enc.write_with_pads", "enc.read",
        "crypto.pads",         "sweep.cell",
    };
    return names[static_cast<size_t>(b)];
}

void
BoundaryStats::merge(const BoundaryStats &other)
{
    calls += other.calls;
    totalNs += other.totalNs;
    selfNs += other.selfNs;
    items += other.items;
    ns.merge(other.ns);
}

void
setSpans(bool on)
{
    g_spans.store(on, std::memory_order_relaxed);
}

void
setPairs(bool on)
{
    g_pairs.store(on, std::memory_order_relaxed);
}

void
begin(Boundary b)
{
    ThreadState &t = state();
    if (t.stack.empty()) {
        t.request = g_nextRequest.fetch_add(1, std::memory_order_relaxed);
        t.sampled = t.request % kSampleStride == 0;
    }
    t.stack.push_back(Frame{b, t.nextSpan++, nowNs(), 0});
}

void
end(uint64_t items)
{
    uint64_t endNs = nowNs();
    ThreadState &t = state();
    Frame f = t.stack.back();
    t.stack.pop_back();
    uint64_t dur = endNs - f.startNs;
    BoundaryStats &s = t.agg[static_cast<size_t>(f.boundary)];
    ++s.calls;
    s.totalNs += dur;
    s.selfNs += dur - std::min(dur, f.childNs);
    s.items += items;
    s.ns.add(dur);
    uint32_t parent = 0;
    if (!t.stack.empty()) {
        t.stack.back().childNs += dur;
        parent = t.stack.back().spanId;
    }
    if (t.sampled) {
        keepRaw(RawSpan{boundaryName(f.boundary), t.tid, f.spanId, parent,
                        t.request, f.startNs, endNs});
    }
}

void
recordRaw(const char *name, uint64_t request, uint64_t start_ns,
          uint64_t end_ns, uint32_t span_id, uint32_t parent_id)
{
    keepRaw(RawSpan{name, state().tid, span_id, parent_id, request,
                    start_ns, end_ns});
}

Aggregate
collect()
{
    Aggregate total;
    std::lock_guard<std::mutex> lock(g_registryMu);
    for (const auto &t : g_threads) {
        for (size_t i = 0; i < kBoundaries; ++i) {
            total[i].merge(t->agg[i]);
        }
    }
    return total;
}

namespace
{

/** Whether this thread's next pair sample is due (bounded). */
bool
pairDue()
{
    ThreadState &t = state();
    return t.pairs.size() < kMaxPairsPerThread &&
           t.pairCandidates++ % kPairStride == 0;
}

void
samplePair(const deuce::CacheLine &before, const deuce::CacheLine &after)
{
    state().pairs.emplace_back(before, after);
}

/** All sampled pairs, across threads. Quiesced callers only. */
std::vector<LinePair>
collectPairs()
{
    std::vector<LinePair> all;
    std::lock_guard<std::mutex> lock(g_registryMu);
    for (const auto &t : g_threads) {
        all.insert(all.end(), t->pairs.begin(), t->pairs.end());
    }
    return all;
}

} // namespace

size_t
writeChromeTrace(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        return 0;
    }
    std::lock_guard<std::mutex> lock(g_rawMu);
    uint64_t origin = UINT64_MAX;
    for (const RawSpan &s : g_raw) {
        origin = std::min(origin, s.startNs);
    }
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (size_t i = 0; i < g_raw.size(); ++i) {
        const RawSpan &s = g_raw[i];
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
            "\"span\":%u,\"parent\":%u}}",
            i ? "," : "", s.name, s.tid, (s.startNs - origin) / 1e3,
            (s.endNs - s.startNs) / 1e3,
            static_cast<unsigned long long>(s.request), s.spanId,
            s.parentId);
        os << buf;
    }
    os << "\n]}\n";
    return os ? g_raw.size() : 0;
}

namespace
{

/** Median over 5 passes of the ns per item of @p pass. */
template <typename Pass>
double
timePerItem(size_t items_per_pass, Pass pass)
{
    // Repeat each pass until it covers at least 20 ms of host time.
    unsigned reps = 1;
    for (;;) {
        uint64_t t0 = nowNs();
        for (unsigned r = 0; r < reps; ++r) {
            pass();
        }
        if (nowNs() - t0 >= 20'000'000 || reps >= (1u << 20)) {
            break;
        }
        reps *= 2;
    }
    std::vector<double> perItem;
    for (unsigned k = 0; k < 5; ++k) {
        uint64_t t0 = nowNs();
        for (unsigned r = 0; r < reps; ++r) {
            pass();
        }
        perItem.push_back(static_cast<double>(nowNs() - t0) /
                          (static_cast<double>(reps) *
                           static_cast<double>(items_per_pass)));
    }
    return median(perItem);
}

/** Host time of direct line-kernel calls, ns per line. */
struct KernelTimes
{
    double flipBatchNsPerLine = 0.0; ///< accumulateFlipsBatch
    double flipLineNs = 0.0;         ///< accumulateFlips
    double wordDiffMaskNs = 0.0;     ///< wordDiffMask, 16-bit words
    double xorPopcountNs = 0.0;      ///< xorPopcount
};

KernelTimes
timeLineKernels(const std::vector<LinePair> &pairs)
{
    KernelTimes out;
    if (pairs.empty()) {
        return out;
    }
    const deuce::LineKernelOps &k = deuce::lineKernels();
    std::vector<deuce::CacheLine> diffs;
    diffs.reserve(pairs.size());
    for (const auto &[before, after] : pairs) {
        diffs.push_back(before ^ after);
    }
    std::vector<uint64_t> wear(deuce::CacheLine::kBits, 0);
    // Results feed a volatile sink so no call is optimized away.
    volatile uint64_t sink = 0;
    size_t n = pairs.size();

    out.flipBatchNsPerLine = timePerItem(n, [&] {
        // Bursts of 64, the write pipeline's drain size.
        for (size_t i = 0; i < n; i += 64) {
            k.accumulateFlipsBatch(diffs.data() + i,
                                   std::min<size_t>(64, n - i),
                                   wear.data());
        }
        sink = sink + wear[0];
    });
    out.flipLineNs = timePerItem(n, [&] {
        for (const deuce::CacheLine &d : diffs) {
            k.accumulateFlips(d, wear.data());
        }
        sink = sink + wear[0];
    });
    out.wordDiffMaskNs = timePerItem(n, [&] {
        uint64_t acc = 0;
        for (const auto &[before, after] : pairs) {
            acc += k.wordDiffMask(before, after, 16);
        }
        sink = sink + acc;
    });
    out.xorPopcountNs = timePerItem(n, [&] {
        uint64_t acc = 0;
        for (const auto &[before, after] : pairs) {
            acc += k.xorPopcount(before, after);
        }
        sink = sink + acc;
    });
    return out;
}

} // namespace

void
reportCryptoEnc(Report &report, const Aggregate &agg, unsigned rounds)
{
    auto at = [&agg](Boundary b) -> const BoundaryStats & {
        return agg[static_cast<size_t>(b)];
    };
    double n = std::max(1u, rounds);
    const BoundaryStats &crypto = at(Boundary::CryptoPads);
    report.add("crypto.pads", static_cast<double>(crypto.items) / n,
               "count");
    report.add("crypto.pads_per_call",
               crypto.calls ? static_cast<double>(crypto.items) /
                                  static_cast<double>(crypto.calls)
                            : 0.0,
               "count");
    report.add("crypto.self_s", static_cast<double>(crypto.selfNs) / n / 1e9,
               "s");
    report.add("crypto.ns_per_pad",
               crypto.items ? static_cast<double>(crypto.selfNs) /
                                  static_cast<double>(crypto.items)
                            : 0.0,
               "ns");

    static const std::pair<Boundary, const char *> calls[] = {
        {Boundary::EncInstall, "enc.calls.install"},
        {Boundary::EncWrite, "enc.calls.write"},
        {Boundary::EncPlanWritePads, "enc.calls.plan_write_pads"},
        {Boundary::EncGeneratePads, "enc.calls.generate_pads"},
        {Boundary::EncWriteWithPads, "enc.calls.write_with_pads"},
        {Boundary::EncRead, "enc.calls.read"},
    };
    uint64_t encSelf = 0;
    for (const auto &[b, name] : calls) {
        report.add(name, static_cast<double>(at(b).calls) / n, "count");
        encSelf += at(b).selfNs;
    }
    uint64_t lines = at(Boundary::EncWrite).calls +
                     at(Boundary::EncWriteWithPads).calls +
                     at(Boundary::EncRead).calls;
    report.add("enc.self_s", static_cast<double>(encSelf) / n / 1e9, "s");
    report.add("enc.ns_per_line",
               lines ? static_cast<double>(encSelf) /
                           static_cast<double>(lines)
                     : 0.0,
               "ns");
}

void
reportLineKernels(Report &report)
{
    auto pairs = collectPairs();
    KernelTimes k = timeLineKernels(pairs);
    report.add("common.flip_batch_ns_per_line", k.flipBatchNsPerLine, "ns");
    report.add("common.flip_line_ns", k.flipLineNs, "ns");
    report.add("common.word_diff_mask_ns", k.wordDiffMaskNs, "ns");
    report.add("common.xor_popcount_ns", k.xorPopcountNs, "ns");
    report.samples.emplace_back("common.pairs", pairs.size());
}

uint64_t
TracedOtpEngine::mirror(const deuce::OtpCounterSnapshot &before) const
{
    deuce::OtpCounterSnapshot after = inner_.snapshotCounters();
    uint64_t pads = after.pads - before.pads;
    notePads(static_cast<unsigned>(pads));
    for (uint64_t b = before.padBatches; b < after.padBatches; ++b) {
        noteBatch();
    }
    return pads;
}

deuce::AesBlock
TracedOtpEngine::padForBlock(uint64_t line_addr, uint64_t counter,
                             unsigned block) const
{
    Span span(Boundary::CryptoPads);
    deuce::OtpCounterSnapshot before = inner_.snapshotCounters();
    deuce::AesBlock pad = inner_.padForBlock(line_addr, counter, block);
    span.items(mirror(before));
    return pad;
}

void
TracedOtpEngine::padForBlocks(uint64_t line_addr,
                              const deuce::PadRequest *requests,
                              deuce::AesBlock *pads, unsigned n) const
{
    Span span(Boundary::CryptoPads);
    deuce::OtpCounterSnapshot before = inner_.snapshotCounters();
    inner_.padForBlocks(line_addr, requests, pads, n);
    span.items(mirror(before));
}

void
TracedOtpEngine::padForLines(const deuce::LinePadRequest *requests,
                             deuce::AesBlock *pads, unsigned n) const
{
    Span span(Boundary::CryptoPads);
    deuce::OtpCounterSnapshot before = inner_.snapshotCounters();
    inner_.padForLines(requests, pads, n);
    span.items(mirror(before));
}

deuce::CacheLine
TracedOtpEngine::padForLine(uint64_t line_addr, uint64_t counter) const
{
    Span span(Boundary::CryptoPads);
    deuce::OtpCounterSnapshot before = inner_.snapshotCounters();
    deuce::CacheLine pad = inner_.padForLine(line_addr, counter);
    span.items(mirror(before));
    return pad;
}

void
TracedScheme::install(uint64_t line_addr, const deuce::CacheLine &plaintext,
                      deuce::StoredLineState &state) const
{
    Span span(Boundary::EncInstall);
    ForwardingScheme::install(line_addr, plaintext, state);
}

deuce::WriteResult
TracedScheme::write(uint64_t line_addr, const deuce::CacheLine &plaintext,
                    deuce::StoredLineState &state) const
{
    Span span(Boundary::EncWrite);
    if (!pairsOn() || !pairDue()) {
        return ForwardingScheme::write(line_addr, plaintext, state);
    }
    deuce::CacheLine before = state.data;
    deuce::WriteResult r =
        ForwardingScheme::write(line_addr, plaintext, state);
    samplePair(before, state.data);
    return r;
}

deuce::CacheLine
TracedScheme::read(uint64_t line_addr,
                   const deuce::StoredLineState &state) const
{
    Span span(Boundary::EncRead);
    return ForwardingScheme::read(line_addr, state);
}

unsigned
TracedScheme::planWritePads(uint64_t line_addr,
                            const deuce::StoredLineState &state,
                            deuce::LinePadRequest *requests) const
{
    Span span(Boundary::EncPlanWritePads);
    return ForwardingScheme::planWritePads(line_addr, state, requests);
}

void
TracedScheme::generatePads(const deuce::LinePadRequest *requests,
                           deuce::AesBlock *pads, unsigned n) const
{
    Span span(Boundary::EncGeneratePads);
    ForwardingScheme::generatePads(requests, pads, n);
}

deuce::WriteResult
TracedScheme::writeWithPads(uint64_t line_addr,
                            const deuce::CacheLine &plaintext,
                            deuce::StoredLineState &state,
                            const deuce::CacheLine *line_pads) const
{
    Span span(Boundary::EncWriteWithPads);
    if (!pairsOn() || !pairDue()) {
        return ForwardingScheme::writeWithPads(line_addr, plaintext,
                                               state, line_pads);
    }
    deuce::CacheLine before = state.data;
    deuce::WriteResult r = ForwardingScheme::writeWithPads(
        line_addr, plaintext, state, line_pads);
    samplePair(before, state.data);
    return r;
}

} // namespace tracing
} // namespace perfbench
