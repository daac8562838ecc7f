#include "support/host.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace ll {
namespace host {

std::string
fingerprintJson()
{
    int nproc = static_cast<int>(std::thread::hardware_concurrency());
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        nproc = CPU_COUNT(&set);
    return "{\"nproc\": " + std::to_string(std::max(nproc, 1)) +
           ", \"compiler\": \"" LL_COMPILER
           "\", \"build_type\": \"" LL_BUILD_TYPE "\"}";
}

} // namespace host
} // namespace ll
