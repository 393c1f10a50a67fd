/**
 * @file
 * Shared pieces of the benchmark (see common.hh).
 */

#include "common.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "sim/memory_counters.hh"

namespace perfbench
{

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
digest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h = (h ^ c) * 0x100000001b3ull;
    }
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

unsigned
LatencyHistogram::indexOf(uint64_t v)
{
    if (v < kSub) {
        return static_cast<unsigned>(v);
    }
    unsigned exp = 63 - static_cast<unsigned>(std::countl_zero(v));
    unsigned shift = exp - kSubBits;
    unsigned sub = static_cast<unsigned>(v >> shift) & (kSub - 1);
    return kSub + shift * kSub + sub;
}

double
LatencyHistogram::bucketLo(unsigned i)
{
    if (i < kSub) {
        return i;
    }
    unsigned shift = (i - kSub) / kSub;
    unsigned sub = (i - kSub) % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), shift);
}

double
LatencyHistogram::bucketHi(unsigned i)
{
    if (i < kSub) {
        return i + 1.0;
    }
    return bucketLo(i) + std::ldexp(1.0, (i - kSub) / kSub);
}

void
LatencyHistogram::add(uint64_t ns)
{
    ++buckets_[indexOf(ns)];
    ++count_;
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::percentile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        double c = static_cast<double>(buckets_[i]);
        if (c == 0.0) {
            continue;
        }
        if (seen + c >= target) {
            double lo = std::max(bucketLo(i), static_cast<double>(min_));
            double hi = std::min(bucketHi(i), static_cast<double>(max_));
            return lo + (target - seen) / c * (hi - lo);
        }
        seen += c;
    }
    return static_cast<double>(max_);
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

bool
agreesWithFirstRound(Report &report, std::string &first,
                     const std::string &round_digest)
{
    if (first.empty()) {
        first = round_digest;
        return true;
    }
    if (round_digest == first) {
        return true;
    }
    report.signatureMismatch = true;
    report.note("round signature " + round_digest +
                " differs from the first round's " + first);
    return false;
}

void
reportEndToEnd(Report &report, const RoundPlan &plan, double p50_ns,
               double p99_ns, uint64_t requests,
               const std::vector<double> &setup_s, double peak_rss_mb)
{
    report.add("ops_per_s", plan.opsPerSecond(false), "1/s");
    report.add("req_p50_us", p50_ns / 1e3, "us");
    report.add("req_p99_us", p99_ns / 1e3, "us");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
    report.samples.emplace_back("req", requests);
    report.samples.emplace_back("setup", setup_s.size());
}

void
reportPcm(Report &report, const deuce::MemoryCounters &counters)
{
    const deuce::EnergyAccumulator &e = counters.energy();
    report.add("pcm.flip_pct", counters.flipStat().mean() * 100.0, "%");
    report.add("pcm.slots_per_write", counters.slotStat().mean(), "count");
    report.add("pcm.energy_pj_per_write",
               e.writeEnergyPj() / static_cast<double>(e.writes()), "pJ");
}

void
recordSignature(Report &report, const std::string &observed,
                const std::string &expected, const std::string &source)
{
    bool ok = observed == expected;
    report.note("signature " + observed + (ok ? " == " : " != ") +
                source + " " + expected);
    if (!ok) {
        // Every round ended in this state, so every operation failed.
        report.signatureMismatch = true;
        report.failed = report.attempted;
    }
}

} // namespace perfbench
