/**
 * @file
 * Nested-vector reference twins of the LinearLayout algebra.
 *
 * LinearLayout stores its matrix as one packed column per input bit and
 * runs every operation as word arithmetic on those columns. The
 * functions here are the original per-coordinate algorithms: each works
 * on the decoded bases (getBases(), one int32 coordinate per output
 * dimension per basis vector) and rebuilds its result through the BasesT
 * constructor. No production code calls them; they exist so that
 * diffLayoutOps (and through it check::diffF2's `layout` family) can
 * hold every fast operation to an independent implementation. The
 * legacy-encoding twins below do the same for the column-built
 * constructors of triton/encodings.h.
 */

#ifndef LL_CHECK_LAYOUT_REFERENCE_H
#define LL_CHECK_LAYOUT_REFERENCE_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "layout/linear_layout.h"
#include "triton/encodings.h"

namespace ll {
namespace check {
namespace reference {

using DimSize = LinearLayout::DimSize;

/** applyFlat of every flat input index, in order, by re-flattening the
 *  decoded bases and XOR-ing the columns of each index's set bits. */
std::vector<uint64_t> applyFlatAll(const LinearLayout &l);

/** outer . inner, one outer.apply per basis vector. */
LinearLayout compose(const LinearLayout &inner, const LinearLayout &outer);

/** a * b, coordinate by coordinate. */
LinearLayout product(const LinearLayout &a, const LinearLayout &b);

LinearLayout transposeIns(const LinearLayout &l,
                          const std::vector<std::string> &order);
LinearLayout transposeOuts(const LinearLayout &l,
                           const std::vector<std::string> &order);
LinearLayout reshapeIns(const LinearLayout &l,
                        const std::vector<DimSize> &newDims);
LinearLayout reshapeOuts(const LinearLayout &l,
                         const std::vector<DimSize> &newDims);

/** outer^-1 . l through matrices built from the decoded bases. */
LinearLayout invertAndCompose(const LinearLayout &l,
                              const LinearLayout &outer);

std::optional<LinearLayout> divideLeft(const LinearLayout &l,
                                       const LinearLayout &divisor);

/** Free-variable masks through an EchelonBasis. */
OrderedMap<std::string, int32_t> getFreeVariableMasks(const LinearLayout &l);

int32_t getNumConsecutiveInOut(const LinearLayout &l);

std::string toString(const LinearLayout &l);

// The legacy encodings of Section 4.3 as the literal proofs of their
// linearity: each layout is a chain of identity1D / zeros1D products,
// clamped by re-decoding its bases and reordered by two transposes.
// triton::*Encoding::toLinearLayout builds the same layouts straight
// into their columns; Encodings.ColumnBuildMatchesProductChain holds
// the two to ==, the same surjectivity and the same throw / no-throw.

LinearLayout blockedLayout(const triton::BlockedEncoding &enc,
                           const triton::Shape &shape);
LinearLayout mmaLayout(const triton::MmaEncoding &enc,
                       const triton::Shape &shape);
LinearLayout mfmaLayout(const triton::MfmaEncoding &enc,
                        const triton::Shape &shape);
LinearLayout dotOperandLayout(const triton::DotOperandEncoding &enc,
                              const triton::Shape &shape);

} // namespace reference

/**
 * Every fast LinearLayout operation against its reference twin on the
 * given layouts: per layout, toString, the free-variable masks, the
 * contiguity analysis, both transposes (identity and reversed order),
 * both reshapes (flattened and split in two), composition with a
 * bit-permuting outer layout and left division by three divisors; per
 * ordered pair, the product and, over a shared output space,
 * composition with a pseudoinverse and invertAndCompose. `same` is
 * called once per comparison with whether the two agreed and the name
 * of the operation. Inputs an operation rejects are skipped, never
 * compared.
 */
void diffLayoutOps(
    const std::vector<LinearLayout> &layouts,
    const std::function<void(bool equal, const char *what)> &same);

} // namespace check
} // namespace ll

#endif // LL_CHECK_LAYOUT_REFERENCE_H
