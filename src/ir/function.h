/**
 * @file
 * A small SSA tensor IR mirroring the Triton ops the paper's layout
 * engine handles (Section 4.4): computation (elementwise, dot, reduce,
 * gather), memory (load/store), layout conversion, and the shape
 * operators trans / reshape / expand_dims / broadcast / join / split.
 *
 * A Function is a single straight-line block: ops execute in order and
 * every value is defined before use. The layout engine annotates each
 * value with a LinearLayout and inserts ConvertLayout ops where operand
 * layouts conflict; benchmarks then count and price those ops exactly
 * like the paper counts convert_layout / local_load / local_store in
 * Triton's GPU IR (Table 6).
 */

#ifndef LL_IR_FUNCTION_H
#define LL_IR_FUNCTION_H

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/types.h"
#include "layout/linear_layout.h"

namespace ll {
namespace codegen {
struct ConversionPlan;
} // namespace codegen

namespace ir {

enum class OpKind
{
    Load,          ///< global memory -> registers
    Store,         ///< registers -> global memory
    Constant,      ///< materialize a constant tensor
    Elementwise,   ///< any pointwise computation (may change dtype)
    Dot,           ///< matrix multiply-accumulate (tensor cores)
    Reduce,        ///< reduction along one axis
    Trans,         ///< dimension permutation
    Reshape,       ///< row-major reshape
    ExpandDims,    ///< insert a size-1 dim
    Broadcast,     ///< stretch size-1 dims
    Join,          ///< stack two tensors along a new minor dim
    Split,         ///< inverse of Join
    ConvertLayout, ///< move data between distributed layouts
    Gather,        ///< gather along one axis
    Scan,          ///< associative scan (cumsum/cumprod) along one axis
};

std::string toString(OpKind kind);

struct Value
{
    int id = -1;
    TensorType type;
    /** Assigned by the layout engine. */
    std::optional<LinearLayout> layout;
    int defOp = -1;
    std::string name;
};

struct Op
{
    OpKind kind;
    std::vector<int> operands; ///< value ids
    std::vector<int> results;  ///< value ids

    int axis = -1;              ///< Reduce/ExpandDims/Gather/Split
    std::vector<int32_t> order; ///< Trans permutation
    std::string tag;            ///< free-form label ("add", "exp", ...)
    bool erased = false;        ///< dead ops are tombstoned, not removed
    /** ConvertLayout only: the plan the layout engine shipped for this
     *  op's endpoint layouts and GPU model, which the cost model prices
     *  (plan_audit executes shipped plans off the compile path).
     *  Null until the engine plans the op, or when no plan survived (the
     *  op is then tagged kUnplannedConvertTag). Whoever edits an
     *  endpoint layout outside the engine must reset it; the engine
     *  resets it before serving the op. */
    std::shared_ptr<const codegen::ConversionPlan> plan;
};

/** Tag of a ConvertLayout op the layout engine tried and could not
 *  plan. */
inline constexpr const char *kUnplannedConvertTag = "convert:unplanned";

class Function
{
  public:
    explicit Function(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    Value &value(int id);
    const Value &value(int id) const;
    Op &op(int idx);
    const Op &op(int idx) const;
    int numOps() const { return static_cast<int>(ops_.size()); }
    int numValues() const { return static_cast<int>(values_.size()); }

    /** Live (non-erased) ops of a given kind. */
    int countOps(OpKind kind) const;

    // --- builder -------------------------------------------------------

    int load(TensorType type, const std::string &tag = "");
    void store(int v, const std::string &tag = "");
    int constant(TensorType type, const std::string &tag = "");
    int elementwise(const std::vector<int> &ins, DType outDtype,
                    const std::string &tag);
    int dot(int a, int b, DType accDtype);
    int reduce(int v, int axis, const std::string &tag = "sum");
    int trans(int v, const std::vector<int32_t> &order);
    int reshape(int v, const Shape &newShape);
    int expandDims(int v, int axis);
    int broadcast(int v, const Shape &newShape);
    int join(int a, int b);
    std::pair<int, int> split(int v);
    int gather(int src, int idx, int axis);
    int scan(int v, int axis, const std::string &tag = "cumsum");

    /**
     * Create a ConvertLayout producing a copy of `v` in `layout`.
     * Returns the new value id; the caller rewires the consuming
     * operand. Used by the layout engine.
     */
    int convertLayout(int v, const LinearLayout &layout);

    /** Structural checks: value ids and shape agreement per op. */
    void verify() const;

    std::string print() const;

  private:
    int newValue(TensorType type, int defOp, const std::string &name);
    int addOp(Op op);
    const TensorType &typeOf(int v) const { return value(v).type; }

    std::string name_;
    std::vector<Value> values_;
    std::vector<Op> ops_;
};

/** How a Dot op multiplies: its operand width (the wider operand's
 *  element bits) and whether it is an FMA dot — operands wider than
 *  32 bits have no tensor-core path, so the dot keeps blocked layouts
 *  and runs on the ALUs (the layout engine tags it "fma"). */
struct DotWidth
{
    int operandBits = 0;
    bool fma = false;
};

/** The DotWidth of `dot`, a Dot op of `f`. */
DotWidth dotWidth(const Function &f, const Op &dot);

} // namespace ir
} // namespace ll

#endif // LL_IR_FUNCTION_H
