/**
 * @file
 * Stand-in for aes_aesni.cc when the AES-NI TU is not built
 * (DEUCE_AESNI=OFF, a non-x86 target, or a toolchain without -maes).
 * Reporting "no ops" here makes aesniAvailable() false, so dispatch
 * resolves aesni requests as auto.
 */

#include "crypto/aes_backend.hh"

namespace deuce
{

const AesBackendOps *
aesniBackendOps()
{
    return nullptr;
}

} // namespace deuce
