/**
 * @file
 * Bit-identity tests for the batched write pipeline: for every scheme
 * and batch size, MemorySystem::writeBatch must produce exactly the
 * same outcomes, stored states, and counter signature as the same
 * trace replayed one write() at a time, and both must reproduce a
 * table of digests pinned independently of the current write body.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cache_line.hh"
#include "common/rng.hh"
#include "crypto/key_domain.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "serve/tenant_scheme.hh"
#include "sim/memory_system.hh"

namespace deuce
{
namespace
{

/** Deterministic pseudo-random initial contents per line. */
CacheLine
initialContents(uint64_t addr)
{
    CacheLine line;
    uint64_t x = addr * 0x9e3779b97f4a7c15ull + 0x1234;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.limb(i) = x;
    }
    return line;
}

/**
 * A write trace with partial-word updates (so the tracking-bit
 * schemes exercise their word paths), repeated addresses (so lines
 * cross epoch boundaries), and enough length that bursts of any
 * tested size contain duplicates.
 */
std::vector<WriteRequest>
makeTrace(unsigned writes, unsigned pool, uint64_t seed)
{
    Rng rng(seed);
    std::vector<CacheLine> current(pool);
    std::vector<bool> touched(pool, false);
    std::vector<WriteRequest> trace;
    trace.reserve(writes);
    for (unsigned i = 0; i < writes; ++i) {
        unsigned a = static_cast<unsigned>(rng.nextBounded(pool));
        uint64_t addr = uint64_t{a} * 3 + 1;
        if (!touched[a]) {
            current[a] = initialContents(addr);
            touched[a] = true;
        }
        CacheLine data = current[a];
        unsigned words = 1 + static_cast<unsigned>(rng.nextBounded(8));
        for (unsigned w = 0; w < words; ++w) {
            unsigned limb = static_cast<unsigned>(rng.nextBounded(8));
            data.limb(limb) ^= rng.next() &
                               (rng.nextBool(0.5) ? 0xffffull
                                                  : ~uint64_t{0});
        }
        current[a] = data;
        trace.push_back(WriteRequest{addr, data});
    }
    return trace;
}

struct Fixture
{
    std::unique_ptr<OtpEngine> otp;
    std::unique_ptr<TenantKeyTable> keys;
    std::unique_ptr<EncryptionScheme> scheme;
    std::unique_ptr<MemorySystem> system;

    /**
     * @param tenants 0 for a bare scheme over one engine; otherwise a
     *                serve::TenantScheme over that many key domains
     *                (tenant-local address field kTenantAddrBits wide)
     */
    Fixture(const std::string &scheme_id, bool fast,
            const WearLevelingConfig &wl, const FaultConfig &fault,
            const PersistConfig &persist,
            const PcmConfig &pcm = PcmConfig{}, unsigned tenants = 0)
    {
        if (tenants > 0) {
            keys = std::make_unique<TenantKeyTable>(0xfeed, tenants,
                                                    fast);
            scheme = std::make_unique<serve::TenantScheme>(
                *keys, scheme_id, kTenantAddrBits);
        } else {
            if (fast) {
                otp = std::make_unique<FastOtpEngine>(0xfeed);
            } else {
                otp = makeAesOtpEngine(0xfeed);
            }
            scheme = makeScheme(scheme_id, *otp);
        }
        system = std::make_unique<MemorySystem>(
            *scheme, wl, pcm, initialContents, fault, persist);
    }

    static constexpr unsigned kTenantAddrBits = 8;
};

void
expectOutcomeEq(const WriteOutcome &a, const WriteOutcome &b,
                const std::string &what)
{
    EXPECT_EQ(a.result.dataDiff, b.result.dataDiff) << what;
    EXPECT_EQ(a.result.dataFlips, b.result.dataFlips) << what;
    EXPECT_EQ(a.result.metaFlips, b.result.metaFlips) << what;
    EXPECT_EQ(a.result.modifiedDiff, b.result.modifiedDiff) << what;
    EXPECT_EQ(a.result.flipDiff, b.result.flipDiff) << what;
    EXPECT_EQ(a.result.cosetDiff, b.result.cosetDiff) << what;
    EXPECT_EQ(a.slots, b.slots) << what;
    EXPECT_EQ(a.writeLatencyNs, b.writeLatencyNs) << what;
    EXPECT_EQ(a.flipFraction, b.flipFraction) << what;
    EXPECT_EQ(a.faultCorrectedCells, b.faultCorrectedCells) << what;
    EXPECT_EQ(a.faultUncorrectable, b.faultUncorrectable) << what;
    EXPECT_EQ(a.persistMetaWrites, b.persistMetaWrites) << what;
}

/**
 * Replay @p trace through two systems — one write() at a time and in
 * writeBatch() bursts of @p batch — and require bit-identical
 * outcomes, stored states, and counter signatures.
 */
void
expectBatchedMatchesSequential(
    const std::string &scheme_id, unsigned batch, bool fast = true,
    const WearLevelingConfig &wl = WearLevelingConfig{},
    const FaultConfig &fault = FaultConfig{},
    const PersistConfig &persist = PersistConfig{},
    unsigned writes = 400, unsigned pool = 29,
    const PcmConfig &pcm = PcmConfig{})
{
    SCOPED_TRACE(scheme_id + " batch=" + std::to_string(batch));
    std::vector<WriteRequest> trace =
        makeTrace(writes, pool, 0xabc + batch);

    Fixture seq(scheme_id, fast, wl, fault, persist, pcm);
    Fixture bat(scheme_id, fast, wl, fault, persist, pcm);

    std::vector<WriteOutcome> seq_out;
    seq_out.reserve(trace.size());
    for (const WriteRequest &w : trace) {
        seq_out.push_back(seq.system->write(w.lineAddr, w.data));
    }

    std::vector<WriteOutcome> bat_out;
    bat_out.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); i += batch) {
        std::size_t n = std::min<std::size_t>(batch,
                                              trace.size() - i);
        std::span<const WriteOutcome> out = bat.system->writeBatch(
            std::span<const WriteRequest>(trace.data() + i, n));
        ASSERT_EQ(out.size(), n);
        // The span aliases the system's arena (reused by the next
        // call), so copy out before the next burst.
        bat_out.insert(bat_out.end(), out.begin(), out.end());
    }

    ASSERT_EQ(seq_out.size(), bat_out.size());
    for (std::size_t i = 0; i < seq_out.size(); ++i) {
        expectOutcomeEq(seq_out[i], bat_out[i],
                        "write " + std::to_string(i));
    }

    for (unsigned a = 0; a < pool; ++a) {
        uint64_t addr = uint64_t{a} * 3 + 1;
        ASSERT_EQ(seq.system->contains(addr),
                  bat.system->contains(addr));
        if (seq.system->contains(addr)) {
            EXPECT_EQ(seq.system->storedState(addr),
                      bat.system->storedState(addr))
                << "line " << addr;
        }
    }

    EXPECT_EQ(seq.system->counters().deterministicSignature(),
              bat.system->counters().deterministicSignature());
}

/** Every registered scheme plus the ones outside allSchemeIds(). */
std::vector<std::string>
schemesUnderTest()
{
    std::vector<std::string> ids = allSchemeIds();
    ids.push_back("addrpad");
    ids.push_back("invmm");
    ids.push_back("perword");
    ids.push_back("vcc");
    ids.push_back("vcc-mlc");
    return ids;
}

TEST(WriteBatch, BitIdenticalAcrossBatchSizesAllSchemes)
{
    for (const std::string &id : schemesUnderTest()) {
        for (unsigned batch : {1u, 7u, 64u}) {
            expectBatchedMatchesSequential(id, batch);
        }
    }
}

TEST(WriteBatch, AesEngineBatchedMatchesSequential)
{
    // The real cipher (auto backend — VAES/AES-NI/NEON where the host
    // has them) through the batched pad stream: catches any pad
    // assembly or ordering bug the fast engine might mask.
    for (const std::string &id :
         {"encr", "deuce", "deuce-fnw", "dyndeuce", "ble-deuce",
          "vcc"}) {
        expectBatchedMatchesSequential(id, 64, /*fast=*/false);
    }
}

TEST(WriteBatch, MlcCellTechGrid)
{
    // MLC2 stretches writeLatencyNs per slot and charges transition
    // energy; both are derived from the committed diff, so the batch
    // path must reproduce them exactly for every scheme family that
    // plans pads ahead — including both VCC cost models, whose pad
    // selection feeds back into the diff being priced.
    PcmConfig mlc;
    mlc.cellTech = CellTech::MLC2;
    for (const std::string &id :
         {"encr", "deuce", "vcc", "vcc-mlc"}) {
        for (unsigned batch : {1u, 7u, 64u}) {
            for (const PcmConfig &pcm : {PcmConfig{}, mlc}) {
                expectBatchedMatchesSequential(
                    id, batch, true, WearLevelingConfig{},
                    FaultConfig{}, PersistConfig{}, 400, 29, pcm);
            }
        }
    }
}

TEST(WriteBatch, VccDuplicateHeavyMlcBursts)
{
    // Repeated addresses in one burst force the duplicate-split path;
    // VCC's aux word changes on every rewrite, so a stale burst-entry
    // snapshot would corrupt both selection bits and MLC pricing.
    PcmConfig mlc;
    mlc.cellTech = CellTech::MLC2;
    for (const std::string &id : {"vcc", "vcc-mlc"}) {
        expectBatchedMatchesSequential(id, 64, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, PersistConfig{},
                                       /*writes=*/300, /*pool=*/3, mlc);
    }
}

TEST(WriteBatch, RotationAndVwlConfigs)
{
    // Rotation moves the physical wear positions; the batched wear
    // landing (cross-line kernels over pre-rotated diffs) must agree
    // with the per-write path under every rotation policy.
    for (WearLevelingConfig::Rotation rot :
         {WearLevelingConfig::Rotation::Hwl,
          WearLevelingConfig::Rotation::HwlHashed,
          WearLevelingConfig::Rotation::PerLine}) {
        WearLevelingConfig wl;
        wl.rotation = rot;
        wl.gapWriteInterval = 16;
        expectBatchedMatchesSequential("deuce", 16, true, wl);
        expectBatchedMatchesSequential("dyndeuce", 16, true, wl);
    }
    WearLevelingConfig no_vwl;
    no_vwl.verticalEnabled = false;
    expectBatchedMatchesSequential("deuce", 16, true, no_vwl);
}

TEST(WriteBatch, SecurityRefreshEngine)
{
    WearLevelingConfig wl;
    wl.engine = WearLevelingConfig::Engine::SecurityRefresh;
    wl.numLines = 1 << 10;
    wl.gapWriteInterval = 8;
    expectBatchedMatchesSequential("deuce", 32, true, wl);
}

TEST(WriteBatch, FaultModelBatched)
{
    FaultConfig fault;
    fault.enabled = true;
    fault.meanEndurance = 600;
    fault.enduranceSigma = 0.25;
    expectBatchedMatchesSequential("deuce", 16, true,
                                   WearLevelingConfig{}, fault);
    expectBatchedMatchesSequential("encr", 16, true,
                                   WearLevelingConfig{}, fault);
}

TEST(WriteBatch, PersistModelBatched)
{
    for (PersistConfig::Policy policy :
         {PersistConfig::Policy::WriteThrough,
          PersistConfig::Policy::Lazy,
          PersistConfig::Policy::BatteryBacked}) {
        PersistConfig persist;
        persist.enabled = true;
        persist.policy = policy;
        persist.flushEpoch = 16;
        expectBatchedMatchesSequential("deuce", 16, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, persist);
    }
}

TEST(WriteBatch, DuplicateHeavyBursts)
{
    // A tiny pool makes nearly every burst contain repeats of the
    // same line, forcing the duplicate-split path: the second write
    // of an address must plan its pads against post-first-write
    // state, not the burst-entry snapshot.
    for (const std::string &id : {"deuce", "dyndeuce", "encr"}) {
        expectBatchedMatchesSequential(id, 64, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, PersistConfig{},
                                       /*writes=*/300, /*pool=*/3);
    }
}

TEST(WriteBatch, EmptyBatchIsNoOp)
{
    Fixture f("deuce", true, WearLevelingConfig{}, FaultConfig{},
              PersistConfig{});
    std::string before = f.system->counters().deterministicSignature();
    std::span<const WriteOutcome> out =
        f.system->writeBatch(std::span<const WriteRequest>{});
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(f.system->counters().deterministicSignature(), before);
}

TEST(WriteBatch, SingleRequestBatchMatchesWrite)
{
    std::vector<WriteRequest> trace = makeTrace(40, 5, 0x77);
    Fixture seq("deuce", true, WearLevelingConfig{}, FaultConfig{},
                PersistConfig{});
    Fixture bat("deuce", true, WearLevelingConfig{}, FaultConfig{},
                PersistConfig{});
    for (const WriteRequest &w : trace) {
        WriteOutcome a = seq.system->write(w.lineAddr, w.data);
        std::span<const WriteOutcome> b =
            bat.system->writeBatch(std::span<const WriteRequest>(&w, 1));
        ASSERT_EQ(b.size(), 1u);
        expectOutcomeEq(a, b[0], "single-request batch");
    }
    EXPECT_EQ(seq.system->counters().deterministicSignature(),
              bat.system->counters().deterministicSignature());
}

/** FNV-1a over @p n bytes, chained from @p h. */
uint64_t
fnv1a(uint64_t h, const void *bytes, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over the 8 little-endian bytes of @p v (host-independent). */
uint64_t
fnv1aWord(uint64_t h, uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1aLine(uint64_t h, const CacheLine &line)
{
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        h = fnv1aWord(h, line.limb(i));
    }
    return h;
}

/**
 * Replay the pinned trace through one system — one write() at a time
 * for @p batch == 1, writeBatch() bursts of @p batch otherwise — and
 * digest every outcome, the counter signature, every stored state and
 * every read-back. With @p tenants > 0 the lines alternate between
 * tenants of a serve::TenantScheme.
 */
uint64_t
pinnedReplayDigest(const std::string &scheme_id, bool fast,
                   unsigned tenants, unsigned batch)
{
    constexpr unsigned kPool = 29;
    std::vector<WriteRequest> trace = makeTrace(400, kPool, 0x5eed);
    auto globalOf = [tenants](uint64_t addr) {
        return tenants == 0
            ? addr
            : serve::TenantScheme::globalAddr(
                  static_cast<unsigned>((addr / 3) % tenants), addr,
                  Fixture::kTenantAddrBits);
    };
    for (WriteRequest &w : trace) {
        w.lineAddr = globalOf(w.lineAddr);
    }

    Fixture f(scheme_id, fast, WearLevelingConfig{}, FaultConfig{},
              PersistConfig{}, PcmConfig{}, tenants);
    uint64_t h = 0xcbf29ce484222325ull;
    auto digestOutcome = [&h](const WriteOutcome &o) {
        h = fnv1aLine(h, o.result.dataDiff);
        h = fnv1aWord(h, o.result.dataFlips);
        h = fnv1aWord(h, o.result.metaFlips);
        h = fnv1aWord(h, o.result.modifiedDiff);
        h = fnv1aWord(h, o.result.flipDiff);
        h = fnv1aWord(h, o.result.cosetDiff);
        h = fnv1aWord(h, o.slots);
        h = fnv1aWord(h, std::bit_cast<uint64_t>(o.writeLatencyNs));
        h = fnv1aWord(h, std::bit_cast<uint64_t>(o.flipFraction));
        h = fnv1aWord(h, o.faultCorrectedCells);
        h = fnv1aWord(h, o.faultUncorrectable);
        h = fnv1aWord(h, o.persistMetaWrites);
    };
    for (std::size_t i = 0; i < trace.size(); i += batch) {
        if (batch == 1) {
            digestOutcome(f.system->write(trace[i].lineAddr,
                                          trace[i].data));
            continue;
        }
        std::size_t n = std::min<std::size_t>(batch, trace.size() - i);
        for (const WriteOutcome &o : f.system->writeBatch(
                 std::span<const WriteRequest>(trace.data() + i, n))) {
            digestOutcome(o);
        }
    }

    std::string sig = f.system->counters().deterministicSignature();
    h = fnv1a(h, sig.data(), sig.size());
    for (unsigned a = 0; a < kPool; ++a) {
        uint64_t addr = globalOf(uint64_t{a} * 3 + 1);
        if (!f.system->contains(addr)) {
            continue;
        }
        const StoredLineState &st = f.system->storedState(addr);
        h = fnv1aWord(h, addr);
        h = fnv1aLine(h, st.data);
        h = fnv1aWord(h, st.counter);
        for (uint64_t c : st.blockCounters) {
            h = fnv1aWord(h, c);
        }
        h = fnv1aWord(h, st.modifiedBits);
        h = fnv1aWord(h, st.flipBits);
        h = fnv1aWord(h, st.modeBit);
        h = fnv1aWord(h, st.cosetBits);
        h = fnv1aLine(h, f.system->read(addr));
    }
    return h;
}

TEST(WriteBatch, PinnedDigestsAtBatchOneAndSixtyFour)
{
    // Reference results fixed when every scheme still carried an
    // on-demand write() beside its planned-pad writeWithPads(), so the
    // single write body is checked against independent numbers, not
    // against itself. Both batch sizes must reproduce the same digest.
    struct Pinned
    {
        const char *id;
        bool fast;
        unsigned tenants;
        uint64_t digest;
    };
    const std::vector<Pinned> table = {
        {"nodcw", true, 0, 0x6906047bfd53d2e2ull},
        {"nofnw", true, 0, 0xbe44cbccc28c559eull},
        {"encr", true, 0, 0xa8baf2e0444f4ed7ull},
        {"encr-fnw", true, 0, 0x5c14eeecb0cbe83eull},
        {"ble", true, 0, 0x2e85618d10799b93ull},
        {"deuce", true, 0, 0x4c18fb4bd472e738ull},
        {"dyndeuce", true, 0, 0x5aa3f8e738a1958aull},
        {"deuce-fnw", true, 0, 0xf50eb63889df45b0ull},
        {"ble-deuce", true, 0, 0x39046577a25f9709ull},
        {"addrpad", true, 0, 0x885492a799935a64ull},
        {"invmm", true, 0, 0xab2d00f2d641a054ull},
        {"perword", true, 0, 0x2bf0fbe9655bac7eull},
        {"vcc", true, 0, 0x3c2d4ea5ab1b1be8ull},
        {"vcc-mlc", true, 0, 0xefa341005da901d4ull},
        {"deuce", true, 2, 0x53b0320e7acbcc35ull},
        {"ble", true, 2, 0xb74c172d0364716aull},
        {"deuce", false, 0, 0x1beaa0640d072ab9ull},
        {"dyndeuce", false, 0, 0x5ceeb8ab2a9e927full},
        {"vcc", false, 0, 0xb7844428c374ae26ull},
        {"ble", false, 0, 0x92bcc9773f59679eull},
    };

    std::vector<std::string> fast_ids = schemesUnderTest();
    ASSERT_EQ(table.size(), fast_ids.size() + 2 + 4);
    for (std::size_t i = 0; i < fast_ids.size(); ++i) {
        EXPECT_EQ(table[i].id, fast_ids[i]);
        EXPECT_TRUE(table[i].fast);
        EXPECT_EQ(table[i].tenants, 0u);
    }
    for (const Pinned &p : table) {
        for (unsigned batch : {1u, 64u}) {
            uint64_t got = pinnedReplayDigest(p.id, p.fast, p.tenants,
                                              batch);
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llxull",
                          static_cast<unsigned long long>(got));
            EXPECT_EQ(got, p.digest)
                << p.id << (p.fast ? " fast" : " aes") << " tenants="
                << p.tenants << " batch=" << batch << " got " << hex;
        }
    }
}

} // namespace
} // namespace deuce
