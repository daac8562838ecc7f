/**
 * @file
 * The host fingerprint a benchmark report records, so a wall time is
 * compared only with one taken on the same kind of machine and build:
 * the CPUs this process may run on, the compiler that built it, and
 * the CMake build type (with the sanitizer, when one is on).
 */

#ifndef LL_SUPPORT_HOST_H
#define LL_SUPPORT_HOST_H

#include <string>

namespace ll {
namespace host {

/** `{"nproc": N, "compiler": "GNU 12.2.0", "build_type":
 *  "RelWithDebInfo"}`: the value of a BENCH report's "host" member.
 *  nproc counts the CPUs in this process's affinity mask (>= 1). */
std::string fingerprintJson();

} // namespace host
} // namespace ll

#endif // LL_SUPPORT_HOST_H
