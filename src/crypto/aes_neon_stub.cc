/**
 * @file
 * Stand-in for aes_neon.cc when the NEON crypto TU is not built
 * (DEUCE_NEON=OFF, a non-ARM target, or a toolchain without
 * -march=armv8-a+crypto). Reporting "no ops" makes aesNeonAvailable()
 * false, so dispatch resolves neon requests as auto.
 */

#include "crypto/aes_backend.hh"

namespace deuce
{

const AesBackendOps *
aesNeonBackendOps()
{
    return nullptr;
}

} // namespace deuce
