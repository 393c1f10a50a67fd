/**
 * @file
 * Stand-in for aes_vaes.cc when the VAES TU is not built
 * (DEUCE_VAES=OFF, a non-x86 target, or a toolchain without
 * -mvaes/-mavx512f). Reporting "no ops" makes vaesAvailable() false,
 * so dispatch resolves vaes requests as auto.
 */

#include "crypto/aes_backend.hh"

namespace deuce
{

const AesBackendOps *
vaesBackendOps()
{
    return nullptr;
}

} // namespace deuce
