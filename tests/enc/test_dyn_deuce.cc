/**
 * @file
 * Tests for DynDEUCE: mode morphing, cost-based selection, epoch
 * return to DEUCE mode, and round-trip correctness across mode
 * changes.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/counter_mode.hh"
#include "enc/deuce.hh"
#include "enc/dyn_deuce.hh"

namespace deuce
{
namespace
{

CacheLine
randomLine(Rng &rng)
{
    CacheLine line;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = rng.next();
    }
    return line;
}

CacheLine
withModifiedWord(const CacheLine &base, unsigned word, uint64_t delta)
{
    CacheLine out = base;
    delta &= 0xffff;
    if (delta == 0) {
        delta = 1;
    }
    out.setField(word * 16, 16, out.field(word * 16, 16) ^ delta);
    return out;
}

class DynDeuceTest : public ::testing::Test
{
  protected:
    DynDeuceTest() : otp_(makeAesOtpEngine(555)) {}
    std::unique_ptr<OtpEngine> otp_;
};

TEST_F(DynDeuceTest, TrackingOverheadIsThirtyThreeBits)
{
    DynDeuce dyn(*otp_);
    EXPECT_EQ(dyn.trackingBitsPerLine(), 33u); // Table 3
}

TEST_F(DynDeuceTest, StartsInDeuceMode)
{
    DynDeuce dyn(*otp_);
    Rng rng(1);
    StoredLineState state;
    dyn.install(1, randomLine(rng), state);
    EXPECT_FALSE(state.modeBit);
}

TEST_F(DynDeuceTest, SparseWritesStayInDeuceMode)
{
    DynDeuce dyn(*otp_);
    Rng rng(2);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    dyn.install(2, plain, state);
    for (int step = 0; step < 30; ++step) {
        plain = withModifiedWord(plain, 3, rng.next());
        dyn.write(2, plain, state);
        EXPECT_FALSE(state.modeBit) << "step " << step;
        ASSERT_EQ(dyn.read(2, state), plain);
    }
}

TEST_F(DynDeuceTest, DenseWritesMorphToFnwMode)
{
    DynDeuce dyn(*otp_);
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    dyn.install(3, plain, state);

    // Rewrite every word twice: once all words are marked modified,
    // DEUCE's cost is a full re-encryption (~256 + tracking-bit
    // churn) while FNW caps near 43%; the mode must flip.
    bool saw_fnw_mode = false;
    for (int step = 0; step < 8; ++step) {
        plain = randomLine(rng);
        dyn.write(3, plain, state);
        saw_fnw_mode |= state.modeBit;
        ASSERT_EQ(dyn.read(3, state), plain);
    }
    EXPECT_TRUE(saw_fnw_mode);
}

TEST_F(DynDeuceTest, ModeReturnsToDeuceAtEpochStart)
{
    const unsigned epoch = 8;
    DynDeuce dyn(*otp_, 2, epoch);
    Rng rng(4);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    dyn.install(4, plain, state);

    // Force FNW mode with dense writes.
    while (!state.modeBit) {
        plain = randomLine(rng);
        dyn.write(4, plain, state);
        ASSERT_EQ(dyn.read(4, state), plain);
    }
    // Advance to the next epoch boundary; the boundary write itself
    // must return to DEUCE mode with cleared tracking bits.
    while (state.counter % epoch != 0) {
        plain = randomLine(rng);
        dyn.write(4, plain, state);
    }
    EXPECT_FALSE(state.modeBit);
    EXPECT_EQ(state.modifiedBits, 0u);
    EXPECT_EQ(dyn.read(4, state), plain);
}

TEST_F(DynDeuceTest, RoundTripsThroughModeChanges)
{
    DynDeuce dyn(*otp_, 2, 8);
    Rng rng(5);
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    dyn.install(5, plain, state);

    for (int step = 0; step < 200; ++step) {
        if (rng.nextBool(0.3)) {
            plain = randomLine(rng); // dense write
        } else {
            plain = withModifiedWord(
                plain, static_cast<unsigned>(rng.nextBounded(32)),
                rng.next());
        }
        dyn.write(5, plain, state);
        ASSERT_EQ(dyn.read(5, state), plain) << "step " << step;
    }
}

TEST_F(DynDeuceTest, PicksTheCheaperEncodingEachWrite)
{
    // Replaying the identical write sequence through DEUCE, through
    // counter-mode+FNW, and through DynDEUCE: per mid-epoch write,
    // DynDEUCE (while in DEUCE mode, where it evaluates both) must
    // cost no more than min(DEUCE, FNW-candidate). We verify the
    // aggregate: DynDEUCE <= DEUCE and DynDEUCE is within the FNW
    // envelope on dense traffic.
    DynDeuce dyn(*otp_, 2, 32);
    Deuce plain_deuce(*otp_);
    Rng rng(6);

    StoredLineState sd, sy;
    CacheLine data = randomLine(rng);
    plain_deuce.install(6, data, sd);
    dyn.install(6, data, sy);

    double deuce_total = 0.0, dyn_total = 0.0;
    for (int step = 0; step < 300; ++step) {
        data = randomLine(rng); // worst case for DEUCE
        deuce_total += plain_deuce.write(6, data, sd).totalFlips();
        dyn_total += dyn.write(6, data, sy).totalFlips();
    }
    EXPECT_LT(dyn_total, deuce_total * 0.92);
    // Dense random traffic should land near the FNW bound (43%).
    EXPECT_NEAR(dyn_total / 300 / CacheLine::kBits, 0.43, 0.02);
}

TEST_F(DynDeuceTest, SparseTrafficMatchesDeuceCost)
{
    DynDeuce dyn(*otp_, 2, 32);
    Deuce plain_deuce(*otp_);
    Rng rng(7);

    StoredLineState sd, sy;
    CacheLine data = randomLine(rng);
    plain_deuce.install(7, data, sd);
    dyn.install(7, data, sy);

    double deuce_total = 0.0, dyn_total = 0.0;
    for (int step = 0; step < 300; ++step) {
        data = withModifiedWord(data, 4, rng.next());
        deuce_total += plain_deuce.write(7, data, sd).totalFlips();
        dyn_total += dyn.write(7, data, sy).totalFlips();
    }
    // On sparse stable traffic DynDEUCE stays in DEUCE mode; costs
    // match except for negligible mode-bit noise.
    EXPECT_NEAR(dyn_total / deuce_total, 1.0, 0.05);
}

TEST_F(DynDeuceTest, PlansOneOrThreePadsAcrossAnEpoch)
{
    // Epoch-start and FNW-mode writes plan the fresh pad alone; a
    // mid-epoch DEUCE-mode write plans DEUCE's three, the FNW
    // candidate reusing LCTR(c+1). Dense writes morph the line, so
    // one epoch covers all three cases.
    const unsigned epoch = 8;
    DynDeuce dyn(*otp_, 2, epoch);
    Rng rng(43);
    const uint64_t addr = 6;
    CacheLine plain = randomLine(rng);
    StoredLineState state;
    dyn.install(addr, plain, state);

    bool saw[3] = {}; // epoch start, FNW mode, DEUCE mode
    for (unsigned i = 0; i < 2 * epoch + 1; ++i) {
        LinePadRequest reqs[4 * kMaxWritePadLines];
        unsigned n = dyn.planWritePads(addr, state, reqs);
        const uint64_t c = state.counter;
        const bool epoch_start = (c + 1) % epoch == 0;
        if (epoch_start || state.modeBit) {
            saw[epoch_start ? 0 : 1] = true;
            ASSERT_EQ(n, 1u) << "write " << i;
            EXPECT_EQ(reqs[0].counter, c + 1);
        } else {
            saw[2] = true;
            ASSERT_EQ(n, 3u) << "write " << i;
            EXPECT_EQ(reqs[0].counter, c);
            EXPECT_EQ(reqs[4].counter, c & ~uint64_t{epoch - 1});
            EXPECT_EQ(reqs[8].counter, c + 1);
        }

        plain = randomLine(rng);
        uint64_t pads_before = otp_->padsGenerated();
        dyn.write(addr, plain, state);
        EXPECT_EQ(otp_->padsGenerated() - pads_before, 4u * n)
            << "write " << i;
        ASSERT_EQ(dyn.read(addr, state), plain) << "write " << i;
    }
    EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

} // namespace
} // namespace deuce
