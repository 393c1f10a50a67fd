/**
 * @file
 * Host-time benchmark of the DEUCE simulator.
 *
 *   perfbench --workload replay_deuce|sweep_fig16|serve_mixed
 *             --seed N --seconds S --trace 0|1
 *
 * Runs one workload in this process for about S seconds of measured
 * host time, checks every output it can (read plaintexts against a
 * shadow copy, final counter signatures against a pinned value for
 * the default seed or a sequential reference for any other), prints
 * what it measured with units, a host fingerprint, and as its last
 * line one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced rounds and reports the per-layer metrics,
 * writing a Chrome-trace sample of raw spans under
 * .bench_build/perfbench/traces. A signature mismatch exits 1.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "common.hh"
#include "common/line_kernels.hh"
#include "crypto/otp_engine.hh"
#include "tracing.hh"

namespace
{

using namespace perfbench;

/** End-to-end metrics, reported by every workload (--trace 0). */
const char *const kEndToEnd[] = {"ops_per_s", "req_p50_us", "req_p99_us",
                                 "setup_s", "peak_rss_mb"};

/**
 * Per-layer metrics (--trace 1) with their units. A workload that
 * does not exercise a layer, or whose layer cannot be observed from
 * outside the program, reports 0 for it and names it in a note.
 */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"crypto.pads", "count"},
    {"crypto.pads_per_call", "count"},
    {"crypto.self_s", "s"},
    {"crypto.ns_per_pad", "ns"},
    {"common.flip_batch_ns_per_line", "ns"},
    {"common.flip_line_ns", "ns"},
    {"common.word_diff_mask_ns", "ns"},
    {"common.xor_popcount_ns", "ns"},
    {"enc.calls.install", "count"},
    {"enc.calls.write", "count"},
    {"enc.calls.plan_write_pads", "count"},
    {"enc.calls.generate_pads", "count"},
    {"enc.calls.write_with_pads", "count"},
    {"enc.calls.read", "count"},
    {"enc.self_s", "s"},
    {"enc.ns_per_line", "ns"},
    {"sim.self_s", "s"},
    {"sim.lines_per_batch", "count"},
    {"sim.write_batch_us_p50", "us"},
    {"sim.write_batch_us_p99", "us"},
    {"sim.read_us_p50", "us"},
    {"sim.read_us_p99", "us"},
    {"sweep.cell_s_p50", "s"},
    {"sweep.cell_s_max", "s"},
    {"sweep.thread_busy_frac", "frac"},
    {"sweep.cell_self_s", "s"},
    {"serve.apply_wait_us_p50", "us"},
    {"serve.apply_wait_us_p99", "us"},
    {"serve.cq_wait_us_p50", "us"},
    {"serve.cq_wait_us_p99", "us"},
    {"serve.burst_mean", "count"},
    {"serve.sq_full_retries", "count"},
    {"serve.cq_stalls", "count"},
    {"serve.shard_skew", "ratio"},
    {"pcm.flip_pct", "%"},
    {"pcm.slots_per_write", "count"},
    {"pcm.energy_pj_per_write", "pJ"},
    {"trace_overhead_frac", "frac"},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload replay_deuce|sweep_fig16|"
                 "serve_mixed --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + a);
        }
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            opt.trace = std::strtoul(v.c_str(), &end, 10) != 0;
        } else {
            usage("unknown argument " + a);
        }
        if (end != nullptr && *end != '\0') {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (opt.workload.empty() || !(opt.seconds > 0)) {
        usage("--workload and a positive --seconds are required");
    }
    return opt;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** The host fingerprint every result carries, as one JSON object. */
std::string
fingerprint(const Options &opt, const Report &report)
{
    auto engine = deuce::makeAesOtpEngine(0);
    std::string samples;
    for (const auto &[name, count] : report.samples) {
        if (!samples.empty()) {
            samples += ',';
        }
        samples += jsonString(name) + ":" + std::to_string(count);
    }
    unsigned nproc = std::thread::hardware_concurrency();
    return std::string("{\"cpu\":") + jsonString(cpuModel()) +
           ",\"nproc\":" + std::to_string(nproc) +
           ",\"aes_backend\":" + jsonString(engine->backendName()) +
           ",\"line_backend\":" +
           jsonString(deuce::lineBackendName(deuce::activeLineBackend())) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"compiler\":" + jsonString(__VERSION__) +
           ",\"workload\":" + jsonString(opt.workload) +
           ",\"seed\":" + std::to_string(opt.seed) +
           ",\"seconds\":" + jsonNumber(opt.seconds) +
           ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"samples\":{" +
           samples + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    Report report;
    if (opt.workload == "replay_deuce") {
        report = runReplayDeuce(opt);
    } else if (opt.workload == "sweep_fig16") {
        report = runSweepFig16(opt);
    } else if (opt.workload == "serve_mixed") {
        report = runServeMixed(opt);
    } else {
        usage("unknown workload " + opt.workload);
    }

    // Order and complete the metric set for this mode.
    std::vector<Metric> out;
    std::set<std::string> known;
    auto take = [&](const std::string &name, const std::string &unit) {
        known.insert(name);
        for (const Metric &m : report.metrics) {
            if (m.name == name) {
                out.push_back(m);
                return true;
            }
        }
        out.push_back(Metric{name, 0.0, unit});
        return false;
    };
    if (opt.trace) {
        std::string absent;
        for (const auto &[name, unit] : kPerLayer) {
            if (!take(name, unit)) {
                absent += absent.empty() ? "" : " ";
                absent += name;
            }
        }
        if (!absent.empty()) {
            report.note("not observed on " + opt.workload +
                        " (reported as 0): " + absent);
        }
        std::filesystem::create_directories(kTraceDir);
        std::string path = std::string(kTraceDir) + "/" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".json";
        size_t spans = tracing::writeChromeTrace(path);
        report.note("chrome trace: " + std::to_string(spans) +
                    " sampled spans in " + path);
    } else {
        for (const char *name : kEndToEnd) {
            if (!take(name, "")) {
                std::cerr << "perfbench: " << opt.workload
                          << " did not measure " << name << "\n";
                return 3;
            }
        }
    }
    for (const Metric &m : report.metrics) {
        if (!known.count(m.name)) {
            std::cerr << "perfbench: unlisted metric " << m.name << "\n";
            return 3;
        }
    }

    double failedFrac =
        static_cast<double>(report.failed) /
        static_cast<double>(std::max<uint64_t>(1, report.attempted));
    for (const std::string &line : report.notes) {
        std::cout << "# " << line << "\n";
    }
    for (const Metric &m : out) {
        std::cout << m.name << " = " << jsonNumber(m.value) << " " << m.unit
                  << "\n";
    }
    std::cout << "failed_frac = " << jsonNumber(failedFrac) << " ("
              << report.failed << " of " << report.attempted << ")\n";
    std::cout << "fingerprint " << fingerprint(opt, report) << "\n";

    bool correct = report.failed == 0 && !report.signatureMismatch;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(out[i].name)
                  << ": {\"value\": " << jsonNumber(out[i].value)
                  << ", \"unit\": " << jsonString(out[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return report.signatureMismatch ? 1 : 0;
}
