/**
 * @file
 * Tracing from outside the program: spans recorded by the benchmark
 * around calls into each layer's public interface, and forwarding
 * decorators of the two virtual layer interfaces (OtpEngine and
 * EncryptionScheme) that the program accepts by injection
 * (makeScheme, SchemeSpec::custom, the MemorySystem constructor).
 *
 * A span is one call through a boundary. Spans nest per thread: the
 * span open when another begins is its parent, a top-level span
 * starts a new request id that its children share, and a span's
 * self time is its duration minus that of its direct children.
 * Spans are aggregated per boundary (calls, total and self time,
 * items, latency histogram); a bounded sample of raw spans is kept
 * for a Chrome-trace file written when the run ends.
 *
 * Recording is off unless the benchmark switches it on, and the
 * decorators then only forward, so the same objects serve traced and
 * untraced rounds.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"

namespace perfbench
{
namespace tracing
{

/** The layer boundaries the benchmark records spans at. */
enum class Boundary : uint8_t
{
    SimWriteBatch,    ///< MemorySystem::writeBatch (benchmark)
    SimRead,          ///< MemorySystem::read (benchmark)
    EncInstall,       ///< EncryptionScheme::install
    EncWrite,         ///< EncryptionScheme::write
    EncPlanWritePads, ///< EncryptionScheme::planWritePads
    EncGeneratePads,  ///< EncryptionScheme::generatePads
    EncWriteWithPads, ///< EncryptionScheme::writeWithPads
    EncRead,          ///< EncryptionScheme::read
    CryptoPads,       ///< any OtpEngine pad call
    SweepCell,        ///< one sweep cell, scheme built to destroyed
    Count
};

constexpr size_t kBoundaries = static_cast<size_t>(Boundary::Count);

/** Dotted span name of @p b ("enc.write", "crypto.pads", ...). */
const char *boundaryName(Boundary b);

/** Aggregate of one boundary's spans. */
struct BoundaryStats
{
    uint64_t calls = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
    /** Work items: pads (crypto), lines (sim.write_batch). */
    uint64_t items = 0;
    LatencyHistogram ns;

    void merge(const BoundaryStats &other);
};

using Aggregate = std::array<BoundaryStats, kBoundaries>;

/** Turn span recording on or off (all threads). */
void setSpans(bool on);

/** Turn (old, new) stored-ciphertext pair sampling on or off. */
void setPairs(bool on);

extern std::atomic<bool> g_spans;
extern std::atomic<bool> g_pairs;

inline bool
spansOn()
{
    return g_spans.load(std::memory_order_relaxed);
}

inline bool
pairsOn()
{
    return g_pairs.load(std::memory_order_relaxed);
}

/** Open a span at @p b on this thread. */
void begin(Boundary b);

/** Close the innermost span, crediting @p items work items. */
void end(uint64_t items = 0);

/** RAII span; records nothing while spans are off. */
class Span
{
  public:
    explicit Span(Boundary b) : on_(spansOn())
    {
        if (on_) {
            begin(b);
        }
    }
    ~Span()
    {
        if (on_) {
            end(items_);
        }
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void items(uint64_t n) { items_ = n; }

  private:
    bool on_;
    uint64_t items_ = 0;
};

/**
 * Record one raw span measured elsewhere (serving-client stamps)
 * into the Chrome-trace sample, under @p request.
 */
void recordRaw(const char *name, uint64_t request, uint64_t start_ns,
               uint64_t end_ns, uint32_t span_id, uint32_t parent_id);

/**
 * Sum of every thread's aggregate. Call only while no traced call is
 * in flight.
 */
Aggregate collect();

/**
 * Write the raw span sample as Chrome-trace JSON to @p path.
 * @return the number of spans written (0 when the file failed).
 */
size_t writeChromeTrace(const std::string &path);

/**
 * Add the crypto.* and enc.* per-layer metrics of @p agg, averaged
 * over @p rounds traced rounds.
 */
void reportCryptoEnc(Report &report, const Aggregate &agg,
                     unsigned rounds);

/**
 * Add the common.* metrics: the active line backend timed by direct
 * calls on the (old, new) stored-ciphertext pairs the scheme
 * decorators sampled (median of 5 passes of at least 20 ms each).
 */
void reportLineKernels(Report &report);

/**
 * Forwarding OtpEngine: every pad call is a crypto.pads span whose
 * items are the pads the inner engine generated. The decorator's own
 * pad counters mirror the inner engine's, so anything reading them
 * through the decorator sees the same values.
 */
class TracedOtpEngine final : public deuce::OtpEngine
{
  public:
    explicit TracedOtpEngine(const deuce::OtpEngine &inner)
        : inner_(inner)
    {}

    deuce::AesBlock padForBlock(uint64_t line_addr, uint64_t counter,
                                unsigned block) const override;
    void padForBlocks(uint64_t line_addr,
                      const deuce::PadRequest *requests,
                      deuce::AesBlock *pads, unsigned n) const override;
    void padForLines(const deuce::LinePadRequest *requests,
                     deuce::AesBlock *pads, unsigned n) const override;
    deuce::CacheLine padForLine(uint64_t line_addr,
                                uint64_t counter) const override;
    const char *backendName() const override
    {
        return inner_.backendName();
    }

  private:
    /** Mirror the inner engine's counter movement since @p before. */
    uint64_t mirror(const deuce::OtpCounterSnapshot &before) const;

    const deuce::OtpEngine &inner_;
};

/**
 * An EncryptionScheme that forwards every virtual to the scheme it
 * owns; decorators override the calls they observe. Optionally owns
 * the pad engine the inner scheme was built on.
 */
class ForwardingScheme : public deuce::EncryptionScheme
{
  public:
    explicit ForwardingScheme(std::unique_ptr<deuce::EncryptionScheme> inner,
                              std::unique_ptr<deuce::OtpEngine> otp = nullptr)
        : otp_(std::move(otp)), inner_(std::move(inner))
    {}

    ForwardingScheme(const ForwardingScheme &) = delete;
    ForwardingScheme &operator=(const ForwardingScheme &) = delete;

    std::string name() const override { return inner_->name(); }
    unsigned trackingBitsPerLine() const override
    {
        return inner_->trackingBitsPerLine();
    }
    void
    install(uint64_t line_addr, const deuce::CacheLine &plaintext,
            deuce::StoredLineState &state) const override
    {
        inner_->install(line_addr, plaintext, state);
    }
    deuce::WriteResult
    write(uint64_t line_addr, const deuce::CacheLine &plaintext,
          deuce::StoredLineState &state) const override
    {
        return inner_->write(line_addr, plaintext, state);
    }
    deuce::CacheLine
    read(uint64_t line_addr,
         const deuce::StoredLineState &state) const override
    {
        return inner_->read(line_addr, state);
    }
    bool usesBlockCounters() const override
    {
        return inner_->usesBlockCounters();
    }
    bool supportsBatchedWrites() const override
    {
        return inner_->supportsBatchedWrites();
    }
    unsigned
    planWritePads(uint64_t line_addr, const deuce::StoredLineState &state,
                  deuce::LinePadRequest *requests) const override
    {
        return inner_->planWritePads(line_addr, state, requests);
    }
    void
    generatePads(const deuce::LinePadRequest *requests,
                 deuce::AesBlock *pads, unsigned n) const override
    {
        inner_->generatePads(requests, pads, n);
    }
    deuce::WriteResult
    writeWithPads(uint64_t line_addr, const deuce::CacheLine &plaintext,
                  deuce::StoredLineState &state,
                  const deuce::CacheLine *line_pads) const override
    {
        return inner_->writeWithPads(line_addr, plaintext, state,
                                     line_pads);
    }
    void registerStats(deuce::obs::StatRegistry &reg,
                       const std::string &prefix) const override
    {
        inner_->registerStats(reg, prefix);
    }

  private:
    // otp_ is declared first so the inner scheme, which refers to it,
    // is destroyed before it.
    std::unique_ptr<deuce::OtpEngine> otp_;
    std::unique_ptr<deuce::EncryptionScheme> inner_;
};

/**
 * Forwarding EncryptionScheme whose six work virtuals are enc.* spans;
 * the rest forward untimed. Optionally owns the TracedOtpEngine the
 * inner scheme was built on.
 */
class TracedScheme final : public ForwardingScheme
{
  public:
    TracedScheme(std::unique_ptr<TracedOtpEngine> otp,
                 std::unique_ptr<deuce::EncryptionScheme> inner)
        : ForwardingScheme(std::move(inner), std::move(otp))
    {}

    void install(uint64_t line_addr, const deuce::CacheLine &plaintext,
                 deuce::StoredLineState &state) const override;
    deuce::WriteResult write(uint64_t line_addr,
                             const deuce::CacheLine &plaintext,
                             deuce::StoredLineState &state) const override;
    deuce::CacheLine read(uint64_t line_addr,
                          const deuce::StoredLineState &state)
        const override;
    unsigned planWritePads(uint64_t line_addr,
                           const deuce::StoredLineState &state,
                           deuce::LinePadRequest *requests)
        const override;
    void generatePads(const deuce::LinePadRequest *requests,
                      deuce::AesBlock *pads, unsigned n) const override;
    deuce::WriteResult writeWithPads(uint64_t line_addr,
                                     const deuce::CacheLine &plaintext,
                                     deuce::StoredLineState &state,
                                     const deuce::CacheLine *line_pads)
        const override;
};

} // namespace tracing
} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
