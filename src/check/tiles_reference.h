/**
 * @file
 * SIMD instruction tiles and tile matching by left division (Section
 * 5.3): the reference twin of codegen::matchesMatrixTile.
 *
 * Theorem 5.1: an instruction whose data movement is described by a tile
 * layout T can lower a register-to-memory map L iff the left division
 * L / T exists. This module builds the tiles for vectorized shared
 * loads/stores and for ldmatrix/stmatrix as layouts, and implements the
 * generalized vectorization that permutes registers until division
 * succeeds. The planner tests the ldmatrix/stmatrix tile on the composed
 * offset columns instead; no production code calls these functions.
 * check::diffF2's `tile` family holds the column test to
 * matchesLdmatrixTile on every shared plan's sides.
 */

#ifndef LL_CHECK_TILES_REFERENCE_H
#define LL_CHECK_TILES_REFERENCE_H

#include <optional>

#include "layout/linear_layout.h"

namespace ll {
namespace check {
namespace reference {

/**
 * Tile of a vectorized shared-memory access moving vecElems consecutive
 * elements per thread: the identity from registers to offsets.
 */
LinearLayout vectorTile(int vecElems);

/**
 * Tile of ldmatrix/stmatrix for elements of elemBytes width: each thread
 * handles 4 contiguous bytes (log2(4/w) register bits) and groups of 4
 * threads cover a 16-byte row (2 lane bits), per Section 5.3.
 */
LinearLayout ldmatrixTile(int elemBytes);

/**
 * Theorem 5.1 check: does `tile` lower `cvt`? `cvt` is a map from
 * register/lane/... to offset (e.g. A composed with the inverse memory
 * layout).
 */
bool tileMatches(const LinearLayout &cvt, const LinearLayout &tile);

/**
 * Generalized vectorization (Section 5.3): try to reorder the register
 * basis of `cvt` so that vectorTile(vecElems) divides it. Returns the
 * permuted layout, or nullopt when no permutation works. The permutation
 * is free at codegen time — registers have no inherent order.
 */
std::optional<LinearLayout> permuteRegistersForTile(const LinearLayout &cvt,
                                                    int vecElems);

/**
 * The largest power-of-two vectorization (in elements) achievable for
 * `cvt` after register permutation, capped at maxElems.
 */
int maxVectorization(const LinearLayout &cvt, int maxElems);

/**
 * Can ldmatrix/stmatrix service the resource->offset map `cvt`? The
 * ldmatrix tile divides it as is or after a register permutation;
 * always false for elements wider than 4 bytes.
 */
bool matchesLdmatrixTile(const LinearLayout &cvt, int elemBytes);

} // namespace reference
} // namespace check
} // namespace ll

#endif // LL_CHECK_TILES_REFERENCE_H
