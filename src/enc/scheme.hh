/**
 * @file
 * EncryptionScheme: the interface every memory-encryption design in
 * this library implements, plus the per-line persistent state and the
 * per-write accounting record.
 *
 * A scheme is a pure state transformer: given the line's current
 * stored state (cell image + counters + tracking bits) and a new
 * plaintext, a write produces the new stored state. All bit-flip
 * accounting is derived centrally by diffing old and new state
 * (makeWriteResult), so a scheme cannot misreport its own cost.
 *
 * Every scheme has exactly one write body, writeWithPads(). A write
 * is planned (planWritePads), its pads generated (generatePads) and
 * then committed by writeWithPads(); write() runs those three steps
 * for one line and MemorySystem::writeBatch() runs them for a burst.
 */

#ifndef DEUCE_ENC_SCHEME_HH
#define DEUCE_ENC_SCHEME_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/cache_line.hh"
#include "crypto/otp_engine.hh"

namespace deuce
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** Architectural width of the per-line write counter (Table 1). */
constexpr unsigned kLineCounterBits = 28;

/**
 * Upper bound on the 512-bit line pads any scheme plans for one
 * write; sizes the stack arrays of EncryptionScheme::write() and the
 * per-write slice of a batch pipeline's pad arena. VCC is the current
 * maximum: with N = 4 coset candidates it plans 3N + 2 = 14 line pads
 * (old/new candidate sets plus the two auxiliary-word pads); DEUCE
 * and DynDEUCE plan at most three.
 */
constexpr unsigned kMaxWritePadLines = 14;

/**
 * Persistent per-line state as stored in the PCM array.
 *
 * Every scheme uses a subset of the fields: counter-mode uses
 * counter; BLE uses blockCounters; DEUCE adds modifiedBits; FNW
 * variants add flipBits; DynDEUCE adds modeBit. Unused fields stay at
 * their defaults and never flip, so the central accounting charges
 * each scheme exactly its own metadata.
 */
struct StoredLineState
{
    /** Stored cell image (ciphertext; FNW may store regions inverted). */
    CacheLine data;

    /** Per-line write counter (line-granularity schemes). */
    uint64_t counter = 0;

    /** Per-16-byte-block write counters (BLE). */
    std::array<uint64_t, 4> blockCounters{};

    /** DEUCE modified-word tracking bits (word w -> bit w). */
    uint64_t modifiedBits = 0;

    /** Flip-N-Write flip bits (region r -> bit r). */
    uint64_t flipBits = 0;

    /** DynDEUCE mode bit (false = DEUCE mode, true = FNW mode). */
    bool modeBit = false;

    /**
     * VCC coset-selection auxiliary word (ciphertext). Holds the
     * encrypted per-word candidate indices; stored alongside the
     * line like DEUCE's word flags but re-randomized under a fresh
     * pad every write, so its flips are part of the scheme's cost.
     */
    uint64_t cosetBits = 0;

    bool operator==(const StoredLineState &other) const = default;
};

/** Accounting record for one line write. */
struct WriteResult
{
    /** XOR of old and new stored data images (cell flip mask). */
    CacheLine dataDiff;

    /** Number of data cells flipped. */
    unsigned dataFlips = 0;

    /**
     * Number of metadata cells flipped: write-counter bits plus
     * tracking bits (modified / flip / mode bits).
     */
    unsigned metaFlips = 0;

    /** Diff of the modified-bit tracking column (DEUCE). */
    uint64_t modifiedDiff = 0;

    /** Diff of the flip-bit tracking column (FNW). */
    uint64_t flipDiff = 0;

    /** Diff of the coset auxiliary word (VCC). */
    uint64_t cosetDiff = 0;

    /** dataFlips + metaFlips. */
    unsigned totalFlips() const { return dataFlips + metaFlips; }
};

/**
 * Derive the accounting record from the state transition. Used by all
 * schemes; counters are charged at the architectural counter width.
 */
WriteResult makeWriteResult(const StoredLineState &before,
                            const StoredLineState &after);

/** Interface implemented by every memory-encryption design. */
class EncryptionScheme
{
  public:
    virtual ~EncryptionScheme() = default;

    /** Human-readable scheme name ("DEUCE-2B-e32", "FNW+Encr", ...). */
    virtual std::string name() const = 0;

    /**
     * Tracking-bit storage overhead per line (Table 3), excluding the
     * write counter(s) that any encrypted design already carries.
     */
    virtual unsigned trackingBitsPerLine() const = 0;

    /**
     * First-time installation of a line (page-in through the memory
     * controller). Sets up counters and the initial cell image; no
     * flips are charged, matching the paper's assumption that pages
     * are encrypted as they are placed into memory.
     */
    virtual void install(uint64_t line_addr, const CacheLine &plaintext,
                         StoredLineState &state) const = 0;

    /**
     * Apply one writeback of @p plaintext to the line, updating
     * @p state in place: plan the pads, generate them in one
     * generatePads() call and commit through writeWithPads(). Schemes
     * do not override it; a decorator that forwards every virtual may.
     * @return the flip accounting for this write.
     */
    virtual WriteResult write(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state) const;

    /** Decrypt the line's current contents. */
    virtual CacheLine read(uint64_t line_addr,
                           const StoredLineState &state) const = 0;

    /**
     * Whether the design encrypts under per-block counters
     * (StoredLineState::blockCounters) rather than the single line
     * counter. Crash recovery needs this: a MAC over the effective
     * (summed) counter can reconstruct a stale line counter by
     * search, but never the split across block counters.
     */
    virtual bool usesBlockCounters() const { return false; }

    /**
     * Every scheme runs the planned-pad write, so this is always true.
     * Nothing in the library consults it; it stays only so decorators
     * that forward every virtual keep compiling.
     */
    virtual bool supportsBatchedWrites() const { return true; }

    /**
     * Plan the 512-bit line pads writeWithPads() consumes for this
     * (line, state) pair, appending 4 block-granular requests per line
     * pad (blocks 0..3 at one counter; see planLinePad()) to
     * @p requests, which must hold 4 * kMaxWritePadLines entries. The
     * plan depends only on the pre-write state, so a burst's pads can
     * all be generated before any line commits. Schemes whose pads
     * depend on the incoming data (BLE's dirty blocks, per-word
     * counters) and schemes that need no write pads keep the default,
     * which plans none.
     * @return the number of line pads planned (not block requests).
     */
    virtual unsigned planWritePads(uint64_t line_addr,
                                   const StoredLineState &state,
                                   LinePadRequest *requests) const;

    /**
     * Generate the pads a batch of planWritePads() calls requested —
     * one padForLines() stream over the whole burst. @p pads receives
     * @p n 16-byte blocks in request order.
     */
    virtual void generatePads(const LinePadRequest *requests,
                              AesBlock *pads, unsigned n) const;

    /**
     * The scheme's write body: apply one writeback of @p plaintext,
     * consuming the line pads planWritePads() planned for this state
     * (one CacheLine per planned line pad, blocks already assembled by
     * assembleLinePads()). A scheme that planned no pads ignores
     * @p line_pads and generates any data-dependent pads itself.
     */
    virtual WriteResult writeWithPads(uint64_t line_addr,
                                      const CacheLine &plaintext,
                                      StoredLineState &state,
                                      const CacheLine *line_pads)
        const = 0;

    /**
     * Register the scheme's stats under @p prefix (dotted, e.g.
     * "system.pcm.scheme"). The base registers the tracking-bit
     * overhead; schemes with richer internal counters override and
     * extend. The scheme must outlive every dump of @p reg.
     */
    virtual void registerStats(obs::StatRegistry &reg,
                               const std::string &prefix) const;
};

/** Plan line pad @p index: blocks 0..3 of (@p line_addr, @p counter). */
inline void
planLinePad(LinePadRequest *requests, unsigned index, uint64_t line_addr,
            uint64_t counter)
{
    for (unsigned block = 0; block < 4; ++block) {
        requests[index * 4 + block] =
            LinePadRequest{line_addr, counter, block};
    }
}

/**
 * scheme.planWritePads() for one write, checked against
 * kMaxWritePadLines (the bound every pad arena is sized by).
 */
unsigned planWrite(const EncryptionScheme &scheme, uint64_t line_addr,
                   const StoredLineState &state,
                   LinePadRequest *requests);

/**
 * Assemble @p n line pads from 4 * @p n generated blocks: line pad p
 * takes blocks 4p..4p+3 at bytes 16b..16b+15 (padForLine()'s layout).
 */
void assembleLinePads(const AesBlock *blocks, unsigned n,
                      CacheLine *line_pads);

} // namespace deuce

#endif // DEUCE_ENC_SCHEME_HH
