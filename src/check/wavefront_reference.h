/**
 * @file
 * The original shared-memory wavefront sweep: the reference twin of
 * codegen::enumerateWavefronts.
 *
 * One warpAccessOffsets layout walk per access, kept as the
 * differential oracle for the table-driven fast path. No production
 * code calls it; check::diffF2 and wavefront_equiv_test compare the
 * two.
 */

#ifndef LL_CHECK_WAVEFRONT_REFERENCE_H
#define LL_CHECK_WAVEFRONT_REFERENCE_H

#include <cstdint>

#include "codegen/swizzle.h"
#include "layout/linear_layout.h"
#include "sim/gpu_spec.h"

namespace ll {
namespace check {
namespace reference {

/** Total wavefronts of every access `dist` makes to `swz`, over every
 *  pass, swept access by access. */
int64_t enumerateWavefronts(const codegen::SwizzledShared &swz,
                            const LinearLayout &dist, int elemBytes,
                            const sim::GpuSpec &spec);

} // namespace reference
} // namespace check
} // namespace ll

#endif // LL_CHECK_WAVEFRONT_REFERENCE_H
