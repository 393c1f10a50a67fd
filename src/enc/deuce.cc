/**
 * @file
 * DEUCE implementation.
 */

#include "enc/deuce.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "pcm/fnw.hh"

namespace deuce
{

Deuce::Deuce(const OtpEngine &otp, const DeuceConfig &cfg)
    : otp_(otp), cfg_(cfg)
{
    if (cfg_.wordBytes != 1 && cfg_.wordBytes != 2 &&
        cfg_.wordBytes != 4 && cfg_.wordBytes != 8) {
        deuce_fatal("DEUCE word size must be 1, 2, 4 or 8 bytes");
    }
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("DEUCE epoch interval must be a power of two >= 2");
    }
    wordBits_ = cfg_.wordBytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    deuce_assert(numWords_ <= 64);
}

std::string
Deuce::name() const
{
    std::ostringstream os;
    os << "DEUCE-" << cfg_.wordBytes << "B-e" << cfg_.epochInterval;
    if (cfg_.withFnw) {
        os << "+FNW";
    }
    return os.str();
}

unsigned
Deuce::trackingBitsPerLine() const
{
    unsigned bits = numWords_;
    if (cfg_.withFnw) {
        bits += fnwRegions(cfg_.fnwRegionBits);
    }
    return bits;
}

void
Deuce::install(uint64_t line_addr, const CacheLine &plaintext,
               StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: the whole line carries the pad
    // of LCTR = TCTR = 0 and all modified bits are clear.
    CacheLine cipher = plaintext ^ otp_.padForLine(line_addr, 0);
    if (cfg_.withFnw) {
        FnwResult fnw = applyFnw(CacheLine{}, 0, cipher,
                                 cfg_.fnwRegionBits);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = cipher;
    }
}

CacheLine
Deuce::decryptWithPads(const StoredLineState &state,
                       const CacheLine &pad_lctr,
                       const CacheLine &pad_tctr) const
{
    CacheLine cipher = cfg_.withFnw
        ? fnwDecode(state.data, state.flipBits, cfg_.fnwRegionBits)
        : state.data;
    CacheLine pad;
    lineKernels().selectByWordMask(pad_lctr, pad_tctr, state.modifiedBits,
                                   wordBits_, pad);
    return cipher ^ pad;
}

unsigned
Deuce::planWritePads(uint64_t line_addr, const StoredLineState &state,
                     LinePadRequest *requests) const
{
    planLinePad(requests, 0, line_addr, state.counter);
    planLinePad(requests, 1, line_addr, trailingCounter(state.counter));
    planLinePad(requests, 2, line_addr, state.counter + 1);
    return 3;
}

void
Deuce::generatePads(const LinePadRequest *requests, AesBlock *pads,
                    unsigned n) const
{
    otp_.padForLines(requests, pads, n);
}

WriteResult
Deuce::writeWithPads(uint64_t, const CacheLine &plaintext,
                     StoredLineState &state,
                     const CacheLine *line_pads) const
{
    StoredLineState before = state;
    const CacheLine &pad_tctr = line_pads[1];
    const CacheLine &pad_lctr = line_pads[2];

    // "On subsequent writes, a read is performed to identify the words
    // that are modified by the given write" (Section 4.3.2):
    // line_pads[0] = LCTR(c) and [1] = TCTR(c) decrypt the current
    // contents.
    CacheLine cur_plain = decryptWithPads(state, line_pads[0], pad_tctr);

    CacheLine cipher;
    state.counter += 1;
    if (isEpochStart(state.counter)) {
        // Epoch start: full re-encryption, tracking bits reset.
        cipher = plaintext ^ pad_lctr;
        state.modifiedBits = 0;
    } else {
        // Mark words that this write changes relative to current
        // contents. Words already tracked since the epoch start stay
        // marked, so the full diff mask can simply be OR-ed in.
        state.modifiedBits |=
            lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);
        // Modified words take the fresh LCTR pad; unmodified words
        // keep their epoch-start ciphertext: their plaintext equals
        // the current plaintext, so the TCTR pad (the same for c and
        // c+1 mid-epoch) reproduces the stored ciphertext bit-for-bit.
        CacheLine pad;
        lineKernels().selectByWordMask(pad_lctr, pad_tctr,
                                       state.modifiedBits, wordBits_,
                                       pad);
        cipher = plaintext ^ pad;
    }

    if (cfg_.withFnw) {
        FnwResult fnw = applyFnw(before.data, before.flipBits, cipher,
                                 cfg_.fnwRegionBits);
        state.data = fnw.stored;
        state.flipBits = fnw.flipBits;
    } else {
        state.data = cipher;
    }
    return makeWriteResult(before, state);
}

CacheLine
Deuce::read(uint64_t line_addr, const StoredLineState &state) const
{
    // Both pads in one 8-block cipher batch (in hardware: generated in
    // parallel); the modified bits select per word which to keep.
    PadRequest requests[8];
    for (unsigned block = 0; block < 4; ++block) {
        requests[block] = PadRequest{state.counter, block};
        requests[4 + block] =
            PadRequest{trailingCounter(state.counter), block};
    }
    AesBlock blocks[8];
    otp_.padForBlocks(line_addr, requests, blocks, 8);
    CacheLine pads[2];
    assembleLinePads(blocks, 2, pads);
    return decryptWithPads(state, pads[0], pads[1]);
}

} // namespace deuce
