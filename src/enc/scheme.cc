/**
 * @file
 * Central write accounting shared by all schemes.
 */

#include "enc/scheme.hh"

#include <bit>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "obs/registry.hh"

namespace deuce
{

void
EncryptionScheme::registerStats(obs::StatRegistry &reg,
                                const std::string &prefix) const
{
    // Byte-compatible with the historical hand-written stats_dump
    // line for this counter (name, description, integer formatting).
    reg.addIntValue(prefix + ".trackingBits",
                    "per-line tracking-bit overhead", [this] {
                        return static_cast<uint64_t>(
                            trackingBitsPerLine());
                    });
}

WriteResult
EncryptionScheme::write(uint64_t line_addr, const CacheLine &plaintext,
                        StoredLineState &state) const
{
    LinePadRequest requests[4 * kMaxWritePadLines];
    AesBlock blocks[4 * kMaxWritePadLines];
    CacheLine line_pads[kMaxWritePadLines];
    unsigned n = planWrite(*this, line_addr, state, requests);
    generatePads(requests, blocks, 4 * n);
    assembleLinePads(blocks, n, line_pads);
    return writeWithPads(line_addr, plaintext, state, line_pads);
}

unsigned
EncryptionScheme::planWritePads(uint64_t, const StoredLineState &,
                                LinePadRequest *) const
{
    return 0;
}

void
EncryptionScheme::generatePads(const LinePadRequest *, AesBlock *,
                               unsigned n) const
{
    if (n > 0) {
        deuce_fatal("generatePads called on a scheme that plans no "
                    "pads");
    }
}

unsigned
planWrite(const EncryptionScheme &scheme, uint64_t line_addr,
          const StoredLineState &state, LinePadRequest *requests)
{
    unsigned n = scheme.planWritePads(line_addr, state, requests);
    deuce_assert(n <= kMaxWritePadLines);
    return n;
}

void
assembleLinePads(const AesBlock *blocks, unsigned n, CacheLine *line_pads)
{
    for (unsigned p = 0; p < n; ++p) {
        line_pads[p] = CacheLine::fromBytes(blocks[4 * p].data());
    }
}

WriteResult
makeWriteResult(const StoredLineState &before,
                const StoredLineState &after)
{
    WriteResult r;
    // One fused pass (XOR + popcount) over the hottest diff in the
    // simulator: every writeback of every scheme funnels through here.
    r.dataFlips = lineKernels().diffInto(before.data, after.data,
                                         r.dataDiff);

    constexpr uint64_t ctr_mask = (uint64_t{1} << kLineCounterBits) - 1;

    unsigned meta = 0;
    meta += static_cast<unsigned>(
        std::popcount((before.counter ^ after.counter) & ctr_mask));
    for (unsigned b = 0; b < 4; ++b) {
        meta += static_cast<unsigned>(std::popcount(
            (before.blockCounters[b] ^ after.blockCounters[b]) &
            ctr_mask));
    }

    r.modifiedDiff = before.modifiedBits ^ after.modifiedBits;
    r.flipDiff = before.flipBits ^ after.flipBits;
    r.cosetDiff = before.cosetBits ^ after.cosetBits;
    meta += static_cast<unsigned>(std::popcount(r.modifiedDiff));
    meta += static_cast<unsigned>(std::popcount(r.flipDiff));
    meta += static_cast<unsigned>(std::popcount(r.cosetDiff));
    if (before.modeBit != after.modeBit) {
        // The mode bit's wear (<= 2 flips per epoch) is charged to the
        // flip count only; it has no dedicated wear-tracker position.
        ++meta;
    }
    r.metaFlips = meta;
    return r;
}

} // namespace deuce
