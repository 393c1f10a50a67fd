/**
 * @file
 * VCC implementation.
 */

#include "enc/vcc.hh"

#include <bit>
#include <sstream>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

namespace
{

/** Largest candidate count the pad-plan arena admits (3N + 2 pads). */
constexpr unsigned kMaxCandidates = (kMaxWritePadLines - 2) / 3;

} // namespace

Vcc::Vcc(const OtpEngine &otp, const VccConfig &cfg)
    : otp_(otp), cfg_(cfg)
{
    if (cfg_.wordBytes != 1 && cfg_.wordBytes != 2 &&
        cfg_.wordBytes != 4 && cfg_.wordBytes != 8) {
        deuce_fatal("VCC word size must be 1, 2, 4 or 8 bytes");
    }
    if (cfg_.epochInterval < 2 ||
        !std::has_single_bit(cfg_.epochInterval)) {
        deuce_fatal("VCC epoch interval must be a power of two >= 2");
    }
    if (cfg_.candidates < 2 || !std::has_single_bit(cfg_.candidates)) {
        deuce_fatal("VCC candidate count must be a power of two >= 2");
    }
    if (cfg_.candidates > kMaxCandidates) {
        deuce_fatal("VCC candidate count exceeds the pad-plan arena "
                    "(kMaxWritePadLines)");
    }
    wordBits_ = cfg_.wordBytes * 8;
    numWords_ = CacheLine::kBits / wordBits_;
    selBits_ = static_cast<unsigned>(std::countr_zero(cfg_.candidates));
    deuce_assert(numWords_ <= 64);
    if (numWords_ * selBits_ > 64) {
        deuce_fatal("VCC selection bits exceed the 64-bit auxiliary "
                    "word; use fewer candidates or larger words");
    }
    auxMask_ = numWords_ * selBits_ == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << (numWords_ * selBits_)) - 1;
}

std::string
Vcc::name() const
{
    std::ostringstream os;
    os << "VCC-" << cfg_.wordBytes << "B-e" << cfg_.epochInterval << "-n"
       << cfg_.candidates;
    if (cfg_.costModel == CellTech::MLC2) {
        os << "-mlc";
    }
    return os.str();
}

unsigned
Vcc::trackingBitsPerLine() const
{
    // Modified bits plus the encrypted selection auxiliary bits.
    return numWords_ + numWords_ * selBits_;
}

double
Vcc::wordCost(uint64_t old_word, uint64_t new_word) const
{
    if (cfg_.costModel == CellTech::SLC) {
        return static_cast<double>(std::popcount(old_word ^ new_word));
    }
    double cost = 0.0;
    for (unsigned b = 0; b < wordBits_; b += 2) {
        cost += cfg_.mlc2.energyPj[(old_word >> b) & 3]
                                  [(new_word >> b) & 3];
    }
    return cost;
}

unsigned
Vcc::planReadPads(uint64_t line_addr, uint64_t counter,
                  LinePadRequest *requests) const
{
    const unsigned n = cfg_.candidates;
    for (unsigned j = 0; j < n; ++j) {
        planLinePad(requests, j, line_addr, virtualCounter(counter, j));
        planLinePad(requests, n + j, line_addr,
                    virtualCounter(trailingCounter(counter), j));
    }
    planLinePad(requests, 2 * n, line_addr, virtualCounter(counter, n));
    return 2 * n + 1;
}

unsigned
Vcc::planImagePads(uint64_t line_addr, uint64_t counter,
                   LinePadRequest *requests) const
{
    for (unsigned j = 0; j <= cfg_.candidates; ++j) {
        planLinePad(requests, j, line_addr, virtualCounter(counter, j));
    }
    return cfg_.candidates + 1;
}

void
Vcc::fetchLinePads(const LinePadRequest *requests, unsigned n,
                   CacheLine *line_pads) const
{
    AesBlock blocks[4 * kMaxWritePadLines];
    generatePads(requests, blocks, 4 * n);
    assembleLinePads(blocks, n, line_pads);
}

unsigned
Vcc::selectCandidate(uint64_t old_word, uint64_t plain_word,
                     const CacheLine *cands, unsigned lsb) const
{
    unsigned best_j = 0;
    double best_cost = 0.0;
    for (unsigned j = 0; j < cfg_.candidates; ++j) {
        uint64_t cipher_word =
            plain_word ^ cands[j].field(lsb, wordBits_);
        double cost = wordCost(old_word, cipher_word);
        // Strict < keeps ties on the lowest index: deterministic for
        // a given (line, counter, seed).
        if (j == 0 || cost < best_cost) {
            best_cost = cost;
            best_j = j;
        }
    }
    return best_j;
}

void
Vcc::encryptStep(const CacheLine &plaintext, const CacheLine &cur_plain,
                 const CacheLine &old_stored, uint64_t new_counter,
                 uint64_t old_modified, uint64_t old_sel,
                 const CacheLine *new_cands, CacheLine &cipher_out,
                 uint64_t &modified_out, uint64_t &sel_out) const
{
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;
    CacheLine cipher;
    uint64_t sel = 0;

    if (isEpochStart(new_counter)) {
        // Epoch start: full re-encryption with a fresh selection for
        // every word; tracking bits reset.
        for (unsigned w = 0; w < numWords_; ++w) {
            unsigned lsb = w * wordBits_;
            uint64_t plain_word = plaintext.field(lsb, wordBits_);
            unsigned j = selectCandidate(
                old_stored.field(lsb, wordBits_), plain_word, new_cands,
                lsb);
            cipher.setField(lsb, wordBits_,
                            plain_word ^
                                new_cands[j].field(lsb, wordBits_));
            sel |= static_cast<uint64_t>(j) << (w * selBits_);
        }
        cipher_out = cipher;
        modified_out = 0;
        sel_out = sel;
        return;
    }

    // DEUCE-style tracking: words changed since the epoch start take
    // a fresh pad (min-cost among the new counter's candidates);
    // unmodified words keep their epoch ciphertext — and their
    // epoch-start selection value — at zero cell flips.
    uint64_t modified =
        old_modified |
        lineKernels().wordDiffMask(plaintext, cur_plain, wordBits_);

    for (unsigned w = 0; w < numWords_; ++w) {
        unsigned lsb = w * wordBits_;
        if ((modified >> w) & 1) {
            uint64_t plain_word = plaintext.field(lsb, wordBits_);
            unsigned j = selectCandidate(
                old_stored.field(lsb, wordBits_), plain_word, new_cands,
                lsb);
            cipher.setField(lsb, wordBits_,
                            plain_word ^
                                new_cands[j].field(lsb, wordBits_));
            sel |= static_cast<uint64_t>(j) << (w * selBits_);
        } else {
            cipher.setField(lsb, wordBits_,
                            old_stored.field(lsb, wordBits_));
            sel |= ((old_sel >> (w * selBits_)) & sel_mask)
                   << (w * selBits_);
        }
    }
    cipher_out = cipher;
    modified_out = modified;
    sel_out = sel;
}

CacheLine
Vcc::decryptWithPads(const CacheLine &cipher, uint64_t modified,
                     uint64_t sel, const CacheLine *lctr_cands,
                     const CacheLine *tctr_cands) const
{
    // Word w decrypts with candidate j = its selection field, taken
    // from the LCTR set if the word is modified and else the TCTR set.
    // Sort the words by candidate, then fold each set down to one pad
    // line with a per-word select per candidate in use.
    const uint64_t sel_mask = (uint64_t{1} << selBits_) - 1;
    uint64_t words_of[kMaxCandidates] = {};
    for (unsigned w = 0; w < numWords_; ++w) {
        words_of[(sel >> (w * selBits_)) & sel_mask] |= uint64_t{1} << w;
    }
    const LineKernelOps &k = lineKernels();
    CacheLine lctr = lctr_cands[0];
    CacheLine tctr = tctr_cands[0];
    for (unsigned j = 1; j < cfg_.candidates; ++j) {
        if (words_of[j] != 0) {
            k.selectByWordMask(lctr_cands[j], lctr, words_of[j],
                               wordBits_, lctr);
            k.selectByWordMask(tctr_cands[j], tctr, words_of[j],
                               wordBits_, tctr);
        }
    }
    k.selectByWordMask(lctr, tctr, modified, wordBits_, lctr);
    return cipher ^ lctr;
}

void
Vcc::install(uint64_t line_addr, const CacheLine &plaintext,
             StoredLineState &state) const
{
    state = StoredLineState{};
    // Counter 0 is an epoch boundary: every word takes a fresh
    // selection, minimized against the fresh (all-zero) cell array.
    LinePadRequest requests[4 * kMaxWritePadLines];
    CacheLine pads[kMaxWritePadLines];
    fetchLinePads(requests, planImagePads(line_addr, 0, requests), pads);

    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, plaintext, CacheLine{}, 0, 0, 0, pads, cipher,
                modified, sel);
    state.data = cipher;
    state.modifiedBits = modified;
    state.cosetBits = (sel ^ pads[cfg_.candidates].limbs()[0]) & auxMask_;
}

CacheLine
Vcc::read(uint64_t line_addr, const StoredLineState &state) const
{
    // Both candidate sets and the auxiliary pad in one cipher call.
    const unsigned n = cfg_.candidates;
    LinePadRequest requests[4 * kMaxWritePadLines];
    CacheLine pads[kMaxWritePadLines];
    fetchLinePads(requests,
                  planReadPads(line_addr, state.counter, requests), pads);
    uint64_t sel = (state.cosetBits ^ pads[2 * n].limbs()[0]) & auxMask_;
    return decryptWithPads(state.data, state.modifiedBits, sel, pads,
                           pads + n);
}

unsigned
Vcc::planWritePads(uint64_t line_addr, const StoredLineState &state,
                   LinePadRequest *requests) const
{
    // Read-back decryption of the current contents, then the new
    // image: candidates and auxiliary pad of c+1.
    unsigned n = planReadPads(line_addr, state.counter, requests);
    return n + planImagePads(line_addr, state.counter + 1,
                             requests + 4 * n);
}

void
Vcc::generatePads(const LinePadRequest *requests, AesBlock *pads,
                  unsigned n) const
{
    otp_.padForLines(requests, pads, n);
}

WriteResult
Vcc::writeWithPads(uint64_t, const CacheLine &plaintext,
                   StoredLineState &state,
                   const CacheLine *line_pads) const
{
    // line_pads = [N LCTR(c) candidates, N TCTR(c) candidates,
    // aux(c), N candidates of c+1, aux(c+1)].
    const unsigned n = cfg_.candidates;
    const CacheLine *lctr_cands = line_pads;
    const CacheLine *tctr_cands = line_pads + n;
    const uint64_t aux_old = line_pads[2 * n].limbs()[0];
    const CacheLine *new_cands = line_pads + 2 * n + 1;
    const uint64_t aux_new = line_pads[3 * n + 1].limbs()[0];
    StoredLineState before = state;

    // Read-back: decode the current selection word, then the current
    // plaintext, to identify the words this write modifies.
    uint64_t old_sel = (state.cosetBits ^ aux_old) & auxMask_;
    CacheLine cur_plain = decryptWithPads(
        state.data, state.modifiedBits, old_sel, lctr_cands, tctr_cands);

    uint64_t new_counter = state.counter + 1;
    CacheLine cipher;
    uint64_t modified = 0;
    uint64_t sel = 0;
    encryptStep(plaintext, cur_plain, state.data, new_counter,
                state.modifiedBits, old_sel, new_cands, cipher, modified,
                sel);

    state.counter = new_counter;
    state.modifiedBits = modified;
    state.data = cipher;
    // The auxiliary word is re-randomized under a fresh pad on every
    // write — its ~numWords*selBits/2 flips are the price of keeping
    // the data-dependent selection indices encrypted.
    state.cosetBits = (sel ^ aux_new) & auxMask_;
    return makeWriteResult(before, state);
}

} // namespace deuce
