/**
 * @file
 * AES backend registry: CPUID detection, selection-knob resolution
 * (setAesBackend / DEUCE_AES_BACKEND / Auto), and the kind -> ops
 * mapping.
 */

#include "crypto/aes_backend.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"

namespace deuce
{

namespace
{

/** CPUID-level AES-NI support (independent of whether the TU built). */
bool
cpuHasAesni()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("aes");
#else
    return false;
#endif
}

/** CPUID-level VAES + AVX-512F support (512-bit AESENC forms). */
bool
cpuHasVaes()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("vaes") &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw");
#else
    return false;
#endif
}

/** ARMv8 crypto-extension support. The TU only builds for aarch64
 *  targets with +crypto, so compiled-in implies the instructions
 *  exist on every CPU the binary runs on. */
bool
cpuHasNeonAes()
{
#if defined(__aarch64__)
    return true;
#else
    return false;
#endif
}

/** Explicit override installed by setAesBackend(); Auto = none. */
std::atomic<AesBackendKind> g_override{AesBackendKind::Auto};

/** Backend named by DEUCE_AES_BACKEND, read once (Auto when unset). */
AesBackendKind
envBackend()
{
    static const AesBackendKind kind = [] {
        const char *env = std::getenv("DEUCE_AES_BACKEND");
        if (env == nullptr || *env == '\0') {
            return AesBackendKind::Auto;
        }
        std::optional<AesBackendKind> parsed =
            parseAesBackendName(env);
        if (!parsed) {
            deuce_fatal(std::string("DEUCE_AES_BACKEND=") + env +
                        ": expected auto, scalar, aesni, vaes or "
                        "neon");
        }
        return *parsed;
    }();
    return kind;
}

/** One-time note when an explicit request resolves as Auto. */
void
warnUnavailable(const char *wanted, const char *got)
{
    // call_once (rather than an atomic exchange) gives the losing
    // threads a happens-before edge on the winner's fprintf: no
    // thread can proceed while the warning is mid-write.
    static std::once_flag warned;
    std::call_once(warned, [wanted, got] {
        obs::logEvent(obs::FlightEventKind::Degrade, "aes_backend",
                      std::string(wanted) +
                          " AES backend requested but unavailable on "
                          "this host; falling back to " +
                          got + " (results are bit-identical)");
    });
}

} // namespace

bool
aesniAvailable()
{
    return aesniBackendOps() != nullptr && cpuHasAesni();
}

bool
vaesAvailable()
{
    return vaesBackendOps() != nullptr && cpuHasVaes();
}

bool
aesNeonAvailable()
{
    return aesNeonBackendOps() != nullptr && cpuHasNeonAes();
}

AesBackendKind
resolveAesBackend(AesBackendKind kind)
{
    // Auto takes the fastest available backend (vaes > aesni > neon >
    // scalar); an explicit but unavailable request warns once and
    // resolves as Auto.
    AesBackendKind best = vaesAvailable()      ? AesBackendKind::Vaes
                          : aesniAvailable()   ? AesBackendKind::AesNi
                          : aesNeonAvailable() ? AesBackendKind::Neon
                                               : AesBackendKind::Scalar;
    bool available = true;
    switch (kind) {
      case AesBackendKind::Auto:
        return best;
      case AesBackendKind::AesNi:
        available = aesniAvailable();
        break;
      case AesBackendKind::Vaes:
        available = vaesAvailable();
        break;
      case AesBackendKind::Neon:
        available = aesNeonAvailable();
        break;
      case AesBackendKind::Scalar:
        break;
    }
    if (!available) {
        warnUnavailable(aesBackendName(kind), aesBackendName(best));
        return best;
    }
    return kind;
}

const AesBackendOps *
aesBackendOps(AesBackendKind kind)
{
    switch (resolveAesBackend(kind)) {
      case AesBackendKind::AesNi:
        return aesniBackendOps();
      case AesBackendKind::Vaes:
        return vaesBackendOps();
      case AesBackendKind::Neon:
        return aesNeonBackendOps();
      case AesBackendKind::Scalar:
      default:
        return scalarBackendOps();
    }
}

AesBackendKind
defaultAesBackend()
{
    AesBackendKind kind = g_override.load(std::memory_order_relaxed);
    if (kind == AesBackendKind::Auto) {
        kind = envBackend();
    }
    return resolveAesBackend(kind);
}

void
setAesBackend(AesBackendKind kind)
{
    g_override.store(kind, std::memory_order_relaxed);
}

std::optional<AesBackendKind>
parseAesBackendName(const std::string &name)
{
    if (name == "auto") {
        return AesBackendKind::Auto;
    }
    if (name == "scalar") {
        return AesBackendKind::Scalar;
    }
    if (name == "aesni") {
        return AesBackendKind::AesNi;
    }
    if (name == "vaes") {
        return AesBackendKind::Vaes;
    }
    if (name == "neon") {
        return AesBackendKind::Neon;
    }
    return std::nullopt;
}

const char *
aesBackendName(AesBackendKind kind)
{
    switch (kind) {
      case AesBackendKind::Auto:
        return "auto";
      case AesBackendKind::Scalar:
        return "scalar";
      case AesBackendKind::AesNi:
        return "aesni";
      case AesBackendKind::Vaes:
        return "vaes";
      case AesBackendKind::Neon:
        return "neon";
    }
    return "auto";
}

} // namespace deuce
