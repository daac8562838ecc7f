/**
 * @file
 * A process-wide work pool for embarrassingly-parallel planning fans.
 *
 * The shared-memory planner prices whole families of independent
 * candidates — notably the (padInterval, padElems) pairs of the padded
 * rung, each of which costs two enumerateWavefronts calls that walk
 * every warp access, since padding defeats their one-access shortcut —
 * and
 * the compilation service drains request batches. Both fan out through
 * this module so the process holds exactly one set of worker threads
 * instead of every layer spawning its own.
 *
 * parallelFor is safe to call from inside a pool worker (the service's
 * workers plan conversions whose padded rung fans out again): the
 * calling thread always participates in draining its own batch, so
 * completion never waits on a pool slot that could be occupied by the
 * caller itself — no nesting deadlock by construction.
 *
 * Determinism: tasks write results only into their own index; callers
 * reduce in index order after the join, so the outcome is identical to
 * the serial loop no matter how tasks interleave. Set LL_PARALLEL=0 to
 * force serial execution (or LL_PARALLEL=<n> to cap the workers).
 */

#ifndef LL_SUPPORT_PARALLEL_H
#define LL_SUPPORT_PARALLEL_H

#include <functional>

namespace ll {
namespace support {

/** Worker threads the shared pool runs (0 = serial execution). */
int parallelWorkers();

/**
 * Run fn(i) for i in [0, n) across the shared pool, blocking until all
 * complete. fn must confine writes to per-index state. Exceptions
 * escape to the caller (the first one thrown, after all tasks finish).
 */
void parallelFor(int n, const std::function<void(int)> &fn);

} // namespace support
} // namespace ll

#endif // LL_SUPPORT_PARALLEL_H
