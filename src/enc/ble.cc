/**
 * @file
 * BlockLevelEncryption implementation.
 */

#include "enc/ble.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

namespace
{

/**
 * Word mask with all @p words_per_block bits of every block in
 * @p blocks set (block b owns words [b * n, (b + 1) * n)).
 */
uint64_t
blockWords(unsigned blocks, unsigned words_per_block)
{
    const uint64_t block = (uint64_t{1} << words_per_block) - 1;
    uint64_t words = 0;
    for (unsigned b = 0; b < BlockLevelEncryption::kBlocks; ++b) {
        if (blocks & (1u << b)) {
            words |= block << (b * words_per_block);
        }
    }
    return words;
}

} // namespace

BlockLevelEncryption::BlockLevelEncryption(const OtpEngine &otp,
                                           bool with_deuce,
                                           unsigned word_bytes,
                                           unsigned epoch)
    : otp_(otp), withDeuce_(with_deuce), wordBytes_(word_bytes),
      epoch_(epoch)
{
    if (wordBytes_ != 1 && wordBytes_ != 2 && wordBytes_ != 4 &&
        wordBytes_ != 8) {
        deuce_fatal("BLE+DEUCE word size must be 1, 2, 4 or 8 bytes");
    }
    if (epoch_ < 2 || !std::has_single_bit(epoch_)) {
        deuce_fatal("BLE+DEUCE epoch must be a power of two >= 2");
    }
    wordBits_ = wordBytes_ * 8;
    wordsPerBlock_ = kBlockBits / wordBits_;
}

std::string
BlockLevelEncryption::name() const
{
    if (!withDeuce_) {
        return "BLE";
    }
    std::ostringstream os;
    os << "BLE+DEUCE-" << wordBytes_ << "B-e" << epoch_;
    return os.str();
}

unsigned
BlockLevelEncryption::trackingBitsPerLine() const
{
    return withDeuce_ ? kBlocks * wordsPerBlock_ : 0;
}

void
BlockLevelEncryption::pads(uint64_t line_addr, unsigned lctr_mask,
                           const uint64_t lctr[kBlocks],
                           unsigned tctr_mask,
                           AesBlock lctr_pads[kBlocks],
                           AesBlock tctr_pads[kBlocks]) const
{
    PadRequest requests[2 * kBlocks];
    unsigned out_block[2 * kBlocks];
    bool out_is_tctr[2 * kBlocks];
    unsigned n = 0;
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (lctr_mask & (1u << b)) {
            requests[n] = PadRequest{lctr[b], b};
            out_block[n] = b;
            out_is_tctr[n] = false;
            ++n;
        }
        if (tctr_mask & (1u << b)) {
            requests[n] = PadRequest{trailing(lctr[b]), b};
            out_block[n] = b;
            out_is_tctr[n] = true;
            ++n;
        }
    }
    AesBlock generated[2 * kBlocks];
    otp_.padForBlocks(line_addr, requests, generated, n);
    for (unsigned i = 0; i < n; ++i) {
        (out_is_tctr[i] ? tctr_pads : lctr_pads)[out_block[i]] =
            generated[i];
    }
}

void
BlockLevelEncryption::install(uint64_t line_addr,
                              const CacheLine &plaintext,
                              StoredLineState &state) const
{
    state = StoredLineState{};
    const uint64_t zero_ctrs[kBlocks] = {};
    AesBlock block_pads[kBlocks];
    pads(line_addr, (1u << kBlocks) - 1, zero_ctrs, 0, block_pads,
         nullptr);
    state.data = plaintext ^ CacheLine::fromBytes(block_pads[0].data());
}

WriteResult
BlockLevelEncryption::writeWithPads(uint64_t line_addr,
                                    const CacheLine &plaintext,
                                    StoredLineState &state,
                                    const CacheLine *) const
{
    StoredLineState before = state;
    CacheLine cur_plain = read(line_addr, state);

    // Find the dirty blocks and bump their counters, so all the pads
    // the write needs can be generated as one cipher batch.
    unsigned dirty_mask = 0;
    unsigned tctr_mask = 0;
    uint64_t new_ctrs[kBlocks] = {};
    const uint64_t dirty_blocks =
        lineKernels().wordDiffMask(plaintext, cur_plain, kBlockBits);
    for (unsigned b = 0; b < kBlocks; ++b) {
        if (!(dirty_blocks & (uint64_t{1} << b))) {
            continue; // counter and ciphertext untouched
        }
        dirty_mask |= 1u << b;
        new_ctrs[b] = before.blockCounters[b] + 1;
        state.blockCounters[b] = new_ctrs[b];
        if (withDeuce_ && !isEpochStart(new_ctrs[b])) {
            tctr_mask |= 1u << b;
        }
    }
    // Blocks outside the masks keep zero pads; no select reads them.
    AesBlock lctr_pads[kBlocks] = {};
    AesBlock tctr_pads[kBlocks] = {};
    pads(line_addr, dirty_mask, new_ctrs, tctr_mask, lctr_pads,
         tctr_pads);
    CacheLine pad = CacheLine::fromBytes(lctr_pads[0].data());

    if (withDeuce_) {
        // DEUCE inside each block: a dirty block at its epoch start
        // re-encrypts whole and resets its tracking bits; the others
        // accumulate modified words, which take the block LCTR pad,
        // while the rest keep the block TCTR pad.
        const uint64_t epoch_words =
            blockWords(dirty_mask & ~tctr_mask, wordsPerBlock_);
        state.modifiedBits =
            (state.modifiedBits |
             lineKernels().wordDiffMask(plaintext, cur_plain,
                                        wordBits_)) &
            ~epoch_words;
        lineKernels().selectByWordMask(
            pad, CacheLine::fromBytes(tctr_pads[0].data()),
            state.modifiedBits | epoch_words, wordBits_, pad);
    }
    // Only dirty blocks are rewritten.
    lineKernels().selectByWordMask(plaintext ^ pad, state.data,
                                   blockWords(dirty_mask, kBlockBits / 64),
                                   64, state.data);
    return makeWriteResult(before, state);
}

CacheLine
BlockLevelEncryption::read(uint64_t line_addr,
                           const StoredLineState &state) const
{
    // One batch covers every pad of the line: 4 LCTR pads, plus the
    // 4 TCTR pads in the DEUCE composition.
    constexpr unsigned kAll = (1u << kBlocks) - 1;
    AesBlock lctr_pads[kBlocks];
    AesBlock tctr_pads[kBlocks];
    pads(line_addr, kAll, state.blockCounters.data(),
         withDeuce_ ? kAll : 0, lctr_pads, tctr_pads);
    CacheLine pad = CacheLine::fromBytes(lctr_pads[0].data());
    if (withDeuce_) {
        lineKernels().selectByWordMask(
            pad, CacheLine::fromBytes(tctr_pads[0].data()),
            state.modifiedBits, wordBits_, pad);
    }
    return state.data ^ pad;
}

} // namespace deuce
