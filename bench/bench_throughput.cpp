/**
 * @file
 * Write-path throughput bench: lines/sec of MemorySystem::write vs
 * MemorySystem::writeBatch across schemes, cipher backends, and batch
 * sizes — the gate for the cross-line batched write pipeline.
 *
 * For every (scheme x batch) cell the bench replays one pre-generated
 * writeback trace (trace generation is outside the timed region) and
 * reports lines/sec, the speedup over the smallest batch, and pads per
 * cipher call. Two hard gates fail the binary:
 *
 *  1. Bit-identity: every batched cell's counter signature must equal
 *     the sequential (batch=1) signature for the same scheme.
 *  2. Pad coalescing: on the auto-selected cipher backend, for the pure
 *     counter-mode scheme ("encr") and for "deuce" at batch >= 16, the
 *     pads per cipher call (OtpEngine padsGenerated()/padBatches())
 *     must rise over the smallest batch by at least the ratio that one
 *     cipher call per duplicate-free chunk yields. writeBatch splits a
 *     burst before any address already in the current chunk, so the
 *     trace fixes the chunk count C_b of every batch size b. Installs
 *     make the same calls at every batch size, so with C_0 chunks and
 *     K_0 calls at the smallest batch the expected calls at batch b
 *     are K_0 - C_0 + C_b, and the gate is
 *
 *         ratio_b = (pads_b / K_b) / (pads_0 / K_0)
 *                >= K_0 / (K_0 - C_0 + C_b).
 *
 *     Both sides are exact counts, so the gate cannot flake on host
 *     noise; generating pads per line leaves ratio_b at 1 and fails.
 *     Lines/sec is reported, not gated: since every write runs the
 *     planned path, batching changes the number of cipher calls, and
 *     what that buys in wall-clock depends on the host.
 *
 * DEUCE_BENCH_JSON appends one JSON line per cell. The scalar-backend
 * sweep (--all-backends) shows where the wide cipher kernels earn the
 * speedup; gates apply to the auto backend only.
 *
 *   $ ./bench_throughput [--writes N] [--pool LINES] [--schemes a,b]
 *                        [--batches 1,16,64] [--all-backends]
 *                        [--json rows.jsonl] [--seed S]
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/aes_backend.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "obs/flight_recorder.hh"
#include "obs/progress.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"

namespace
{

using namespace deuce;

struct Args
{
    uint64_t writes = 200000;
    unsigned pool = 4096;
    std::vector<std::string> schemes{"encr", "deuce", "deuce-fnw",
                                     "dyndeuce", "ble"};
    std::vector<unsigned> batches{1, 16, 64};
    bool allBackends = false;
    std::string json;
    uint64_t seed = 0x7f4a7c15;
};

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(item);
    }
    deuce_assert(!out.empty());
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            deuce_assert(i + 1 < argc);
            return argv[++i];
        };
        if (a == "--writes") {
            args.writes = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--pool") {
            args.pool = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 10));
        } else if (a == "--schemes") {
            args.schemes = splitCsv(next());
        } else if (a == "--batches") {
            args.batches.clear();
            for (const std::string &b : splitCsv(next())) {
                args.batches.push_back(static_cast<unsigned>(
                    std::strtoul(b.c_str(), nullptr, 10)));
            }
        } else if (a == "--all-backends") {
            args.allBackends = true;
        } else if (a == "--json") {
            args.json = next();
        } else if (a == "--seed") {
            args.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else {
            std::cerr << "unknown argument: " << a << "\n";
            std::exit(2);
        }
    }
    return args;
}

CacheLine
initialContents(uint64_t addr)
{
    CacheLine line;
    uint64_t x = addr * 0x9e3779b97f4a7c15ull + 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.limb(i) = x;
    }
    return line;
}

/**
 * The writeback trace every cell replays: uniform addresses over the
 * pool, partial-word updates (the regime the tracking schemes are
 * built for). Generated once, outside the timed region.
 */
std::vector<WriteRequest>
makeTrace(const Args &args)
{
    Rng rng(args.seed);
    std::vector<CacheLine> current(args.pool);
    std::vector<bool> touched(args.pool, false);
    std::vector<WriteRequest> trace;
    trace.reserve(args.writes);
    for (uint64_t i = 0; i < args.writes; ++i) {
        unsigned a = static_cast<unsigned>(rng.nextBounded(args.pool));
        if (!touched[a]) {
            current[a] = initialContents(a);
            touched[a] = true;
        }
        CacheLine data = current[a];
        unsigned words = rng.nextPositiveGeometric(2.0);
        for (unsigned w = 0; w < words && w < 8; ++w) {
            data.limb(rng.nextBounded(8)) ^= rng.next();
        }
        current[a] = data;
        trace.push_back(WriteRequest{a, data});
    }
    return trace;
}

struct CellResult
{
    double linesPerSec = 0.0;
    std::string signature;
    std::string aesBackend;
    uint64_t pads = 0;     ///< padsGenerated() after the replay
    uint64_t padCalls = 0; ///< padBatches() after the replay

    double padsPerCall() const
    {
        return padCalls ? static_cast<double>(pads) /
                              static_cast<double>(padCalls)
                        : 0.0;
    }
};

/**
 * Duplicate-free chunks the trace splits into at @p batch: writeBatch
 * ends a chunk before the first request whose address the chunk
 * already holds, and every batch starts a new chunk.
 */
uint64_t
countChunks(const std::vector<WriteRequest> &trace, unsigned batch)
{
    batch = std::max(batch, 1u);
    uint64_t chunks = 0;
    std::unordered_set<uint64_t> open;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i % batch == 0 || open.count(trace[i].lineAddr)) {
            ++chunks;
            open.clear();
        }
        open.insert(trace[i].lineAddr);
    }
    return chunks;
}

bool
backendAvailable(AesBackendKind k)
{
    switch (k) {
      case AesBackendKind::AesNi: return aesniAvailable();
      case AesBackendKind::Vaes: return vaesAvailable();
      case AesBackendKind::Neon: return aesNeonAvailable();
      default: return true;
    }
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

CellResult
runCell(const std::string &scheme_id, unsigned batch,
        AesBackendKind backend,
        const std::vector<WriteRequest> &trace)
{
    AesKey key{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<uint8_t>(0x42 + 13 * i);
    }
    AesOtpEngine otp(key, backend);
    std::unique_ptr<EncryptionScheme> scheme =
        makeScheme(scheme_id, otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem system(*scheme, wl, PcmConfig{}, initialContents);

    uint64_t start = nowNs();
    if (batch <= 1) {
        for (const WriteRequest &w : trace) {
            system.write(w.lineAddr, w.data);
        }
    } else {
        for (std::size_t i = 0; i < trace.size(); i += batch) {
            std::size_t n =
                std::min<std::size_t>(batch, trace.size() - i);
            system.writeBatch(
                std::span<const WriteRequest>(trace.data() + i, n));
        }
    }
    uint64_t elapsed = nowNs() - start;

    CellResult result;
    result.linesPerSec = static_cast<double>(trace.size()) * 1e9 /
                         static_cast<double>(elapsed);
    result.signature = system.counters().deterministicSignature();
    result.aesBackend = otp.backendName();
    result.pads = otp.padsGenerated();
    result.padCalls = otp.padBatches();
    return result;
}

void
appendJsonRow(const Args &args, const std::string &scheme,
              unsigned batch, const CellResult &r, double speedup,
              double pad_ratio, double pad_ratio_min, bool identical)
{
    std::string path = args.json;
    if (path.empty()) {
        if (const char *env = std::getenv("DEUCE_BENCH_JSON")) {
            path = env;
        }
    }
    if (path.empty()) {
        return;
    }
    std::ofstream out(path, std::ios::app);
    out << "{\"bench\":\"THROUGHPUT\",\"scheme\":\"" << scheme
        << "\",\"write_batch\":" << batch << ",\"aes_backend\":\""
        << r.aesBackend << "\",\"writes\":" << args.writes
        << ",\"lines_per_sec\":" << r.linesPerSec
        << ",\"speedup\":" << speedup
        << ",\"pads_per_call\":" << r.padsPerCall()
        << ",\"pads_per_call_ratio\":" << pad_ratio
        << ",\"pads_per_call_ratio_min\":" << pad_ratio_min
        << ",\"bit_identical\":" << (identical ? "true" : "false")
        << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (const char *env = std::getenv("DEUCE_BENCH_WB")) {
        args.writes = std::strtoull(env, nullptr, 10);
    }
    obs::flightRecorderConfigureFromEnv();

    printBanner(std::cout, "Throughput",
                "batched write pipeline — lines/sec vs one-at-a-time");

    std::vector<AesBackendKind> backends{AesBackendKind::Auto};
    if (args.allBackends) {
        for (AesBackendKind k :
             {AesBackendKind::Scalar, AesBackendKind::AesNi,
              AesBackendKind::Vaes, AesBackendKind::Neon}) {
            if (backendAvailable(k)) {
                backends.push_back(k);
            }
        }
    }

    std::vector<WriteRequest> trace = makeTrace(args);
    std::cout << args.writes << " writebacks over " << args.pool
              << " lines, batch sizes {";
    for (std::size_t i = 0; i < args.batches.size(); ++i) {
        std::cout << (i ? "," : "") << args.batches[i];
    }
    std::cout << "}\n\n";

    std::vector<uint64_t> chunks;
    for (unsigned batch : args.batches) {
        chunks.push_back(countChunks(trace, batch));
    }

    Table table({"scheme", "backend", "batch", "Mlines/s", "speedup",
                 "pads/call", "ratio", "min", "identical"});

    // DEUCE_PROGRESS heartbeat over the cell grid (serial cells).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (auto opts = obs::progressOptionsFromEnv()) {
        opts->label = "throughput";
        progress = std::make_unique<obs::ProgressReporter>(
            args.schemes.size() * backends.size() *
                args.batches.size(),
            1, *opts);
    }

    bool gatesPass = true;
    for (const std::string &scheme : args.schemes) {
        for (AesBackendKind backend : backends) {
            CellResult base;
            for (std::size_t b = 0; b < args.batches.size(); ++b) {
                const unsigned batch = args.batches[b];
                std::string cell = scheme + "/b" +
                                   std::to_string(batch);
                if (progress) {
                    progress->cellStarted(cell);
                }
                uint64_t cellStart = nowNs();
                CellResult r = runCell(scheme, batch, backend, trace);
                if (progress) {
                    progress->cellFinished(
                        cell, static_cast<double>(nowNs() - cellStart) /
                                  1e9);
                }
                if (b == 0) {
                    // The smallest batch size anchors both gates; the
                    // default grid starts at 1 (pure write() path).
                    base = r;
                }
                double speedup = r.linesPerSec / base.linesPerSec;
                bool identical = r.signature == base.signature;
                double padRatio = base.padsPerCall() > 0.0
                    ? r.padsPerCall() / base.padsPerCall()
                    : 0.0;
                // Coalescing gate: auto backend, the pad-generation-
                // bound schemes (every write plans pads), at a batch
                // the pipeline was built for. Its threshold counts the
                // install calls (K_0 - C_0) plus one call per chunk at
                // this batch. Other schemes/backends report but don't
                // gate.
                const bool gated = backend == AesBackendKind::Auto &&
                                   batch >= 16 &&
                                   (scheme == "encr" ||
                                    scheme == "deuce");
                const uint64_t expectedCalls =
                    base.padCalls - chunks[0] + chunks[b];
                double padRatioMin = 0.0;
                bool coalesced = true;
                if (gated) {
                    padRatioMin = static_cast<double>(base.padCalls) /
                                  static_cast<double>(expectedCalls);
                    // ratio_b >= min, cross-multiplied to stay exact:
                    // pads_b / K_b >= pads_0 / expectedCalls.
                    coalesced = r.pads * expectedCalls >=
                                base.pads * r.padCalls;
                }
                table.addRow({scheme, r.aesBackend,
                              std::to_string(batch),
                              fmt(r.linesPerSec / 1e6, 3),
                              fmt(speedup, 2), fmt(r.padsPerCall(), 2),
                              fmt(padRatio, 2),
                              gated ? fmt(padRatioMin, 2) : "-",
                              identical ? "=" : "DIVERGED"});
                appendJsonRow(args, scheme, batch, r, speedup,
                              padRatio, padRatioMin, identical);
                if (!identical) {
                    std::cerr << "FAIL: " << scheme << " batch "
                              << batch << " on " << r.aesBackend
                              << " diverged from the sequential "
                                 "signature\n";
                    obs::flightRecorderRecord(
                        obs::FlightEventKind::Gate, 0, 0, batch);
                    obs::flightRecorderWriteFile();
                    gatesPass = false;
                }
                if (!coalesced) {
                    std::cerr << "FAIL: " << scheme << " batch "
                              << batch << " raised pads per cipher "
                              << "call only " << fmt(padRatio, 2)
                              << "x over batch " << args.batches[0]
                              << " (gate: " << fmt(padRatioMin, 2)
                              << "x, one call per duplicate-free "
                                 "chunk)\n";
                    obs::flightRecorderRecord(
                        obs::FlightEventKind::Gate, 0, 0, batch);
                    obs::flightRecorderWriteFile();
                    gatesPass = false;
                }
            }
        }
        table.addRule();
    }
    table.print(std::cout);
    std::cout << "\n'=' marks cells whose counter signature is "
                 "bit-identical to the batch-1 replay. 'ratio' is pads "
                 "per cipher call over the first batch size; for encr "
                 "and deuce at batch >= 16 on the auto backend it must "
                 "reach 'min', the ratio of one cipher call per "
                 "duplicate-free chunk.\n";
    return gatesPass ? 0 : 1;
}
