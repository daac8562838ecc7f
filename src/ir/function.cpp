#include "ir/function.h"

#include <algorithm>
#include <sstream>

#include "support/bits.h"
#include "support/string_utils.h"

namespace ll {
namespace ir {

std::string
toString(OpKind kind)
{
    switch (kind) {
      case OpKind::Load:
        return "load";
      case OpKind::Store:
        return "store";
      case OpKind::Constant:
        return "constant";
      case OpKind::Elementwise:
        return "elementwise";
      case OpKind::Dot:
        return "dot";
      case OpKind::Reduce:
        return "reduce";
      case OpKind::Trans:
        return "trans";
      case OpKind::Reshape:
        return "reshape";
      case OpKind::ExpandDims:
        return "expand_dims";
      case OpKind::Broadcast:
        return "broadcast";
      case OpKind::Join:
        return "join";
      case OpKind::Split:
        return "split";
      case OpKind::ConvertLayout:
        return "convert_layout";
      case OpKind::Gather:
        return "gather";
      case OpKind::Scan:
        return "scan";
    }
    llPanic("unknown op kind");
}

Value &
Function::value(int id)
{
    llAssert(id >= 0 && id < numValues(), "bad value id " << id);
    return values_[static_cast<size_t>(id)];
}

const Value &
Function::value(int id) const
{
    llAssert(id >= 0 && id < numValues(), "bad value id " << id);
    return values_[static_cast<size_t>(id)];
}

Op &
Function::op(int idx)
{
    llAssert(idx >= 0 && idx < numOps(), "bad op index " << idx);
    return ops_[static_cast<size_t>(idx)];
}

const Op &
Function::op(int idx) const
{
    llAssert(idx >= 0 && idx < numOps(), "bad op index " << idx);
    return ops_[static_cast<size_t>(idx)];
}

int
Function::countOps(OpKind kind) const
{
    int count = 0;
    for (const Op &o : ops_) {
        if (!o.erased && o.kind == kind)
            ++count;
    }
    return count;
}

int
Function::newValue(TensorType type, int defOp, const std::string &name)
{
    for (int32_t s : type.shape) {
        llUserCheck(isPowerOf2(static_cast<uint64_t>(s)),
                    "tensor dims must be powers of two, got "
                        << s
                        << " (non-pow2 shapes are well-formed but need "
                           "the cute admission path: "
                           "cute::tryPlanCuteConversion / "
                           "service::serveCuteConversion)");
    }
    Value v;
    v.id = numValues();
    v.type = std::move(type);
    v.defOp = defOp;
    v.name = name.empty() ? ("v" + std::to_string(v.id)) : name;
    values_.push_back(std::move(v));
    return values_.back().id;
}

int
Function::addOp(Op op)
{
    ops_.push_back(std::move(op));
    return numOps() - 1;
}

int
Function::load(TensorType type, const std::string &tag)
{
    Op o;
    o.kind = OpKind::Load;
    o.tag = tag;
    int idx = addOp(std::move(o));
    int v = newValue(std::move(type), idx, tag);
    ops_.back().results = {v};
    return v;
}

void
Function::store(int v, const std::string &tag)
{
    Op o;
    o.kind = OpKind::Store;
    o.operands = {v};
    o.tag = tag;
    addOp(std::move(o));
}

int
Function::constant(TensorType type, const std::string &tag)
{
    Op o;
    o.kind = OpKind::Constant;
    o.tag = tag;
    int idx = addOp(std::move(o));
    int v = newValue(std::move(type), idx, tag);
    ops_.back().results = {v};
    return v;
}

int
Function::elementwise(const std::vector<int> &ins, DType outDtype,
                      const std::string &tag)
{
    llUserCheck(!ins.empty(), "elementwise needs at least one operand");
    const Shape &shape = typeOf(ins[0]).shape;
    for (int v : ins) {
        llUserCheck(typeOf(v).shape == shape,
                    "elementwise operands must share a shape");
    }
    Op o;
    o.kind = OpKind::Elementwise;
    o.operands = ins;
    o.tag = tag;
    int idx = addOp(std::move(o));
    int v = newValue({outDtype, shape}, idx, tag);
    ops_.back().results = {v};
    return v;
}

DotWidth
dotWidth(const Function &f, const Op &dot)
{
    const int bits =
        std::max(bitWidth(f.value(dot.operands[0]).type.dtype),
                 bitWidth(f.value(dot.operands[1]).type.dtype));
    return {bits, bits > 32};
}

int
Function::dot(int a, int b, DType accDtype)
{
    const TensorType &ta = typeOf(a);
    const TensorType &tb = typeOf(b);
    llUserCheck(ta.rank() == 2 && tb.rank() == 2, "dot operands are 2D");
    llUserCheck(ta.shape[1] == tb.shape[0],
                "dot: inner dims disagree: " << ta.toString() << " vs "
                                             << tb.toString());
    Op o;
    o.kind = OpKind::Dot;
    o.operands = {a, b};
    int idx = addOp(std::move(o));
    int v = newValue({accDtype, {ta.shape[0], tb.shape[1]}}, idx, "acc");
    ops_.back().results = {v};
    return v;
}

int
Function::reduce(int v, int axis, const std::string &tag)
{
    const TensorType &t = typeOf(v);
    llUserCheck(axis >= 0 && axis < t.rank(), "reduce axis out of range");
    Shape shape = t.shape;
    shape.erase(shape.begin() + axis);
    Op o;
    o.kind = OpKind::Reduce;
    o.operands = {v};
    o.axis = axis;
    o.tag = tag;
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, std::move(shape)}, idx, tag);
    ops_.back().results = {r};
    return r;
}

int
Function::trans(int v, const std::vector<int32_t> &order)
{
    const TensorType &t = typeOf(v);
    llUserCheck(static_cast<int>(order.size()) == t.rank(),
                "trans order rank mismatch");
    Shape shape;
    for (int32_t d : order)
        shape.push_back(t.shape[static_cast<size_t>(d)]);
    Op o;
    o.kind = OpKind::Trans;
    o.operands = {v};
    o.order = order;
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, std::move(shape)}, idx, "t");
    ops_.back().results = {r};
    return r;
}

int
Function::reshape(int v, const Shape &newShape)
{
    const TensorType &t = typeOf(v);
    int64_t n = 1;
    for (int32_t s : newShape)
        n *= s;
    llUserCheck(n == t.numElements(), "reshape changes element count");
    Op o;
    o.kind = OpKind::Reshape;
    o.operands = {v};
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, newShape}, idx, "r");
    ops_.back().results = {r};
    return r;
}

int
Function::expandDims(int v, int axis)
{
    const TensorType &t = typeOf(v);
    llUserCheck(axis >= 0 && axis <= t.rank(),
                "expand_dims axis out of range");
    Shape shape = t.shape;
    shape.insert(shape.begin() + axis, 1);
    Op o;
    o.kind = OpKind::ExpandDims;
    o.operands = {v};
    o.axis = axis;
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, std::move(shape)}, idx, "e");
    ops_.back().results = {r};
    return r;
}

int
Function::broadcast(int v, const Shape &newShape)
{
    const TensorType &t = typeOf(v);
    llUserCheck(static_cast<int>(newShape.size()) == t.rank(),
                "broadcast rank mismatch");
    for (int i = 0; i < t.rank(); ++i) {
        llUserCheck(t.shape[static_cast<size_t>(i)] ==
                            newShape[static_cast<size_t>(i)] ||
                        t.shape[static_cast<size_t>(i)] == 1,
                    "broadcast only stretches size-1 dims");
    }
    Op o;
    o.kind = OpKind::Broadcast;
    o.operands = {v};
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, newShape}, idx, "b");
    ops_.back().results = {r};
    return r;
}

int
Function::join(int a, int b)
{
    const TensorType &ta = typeOf(a);
    llUserCheck(ta == typeOf(b), "join operands must match");
    Shape shape = ta.shape;
    shape.push_back(2);
    Op o;
    o.kind = OpKind::Join;
    o.operands = {a, b};
    int idx = addOp(std::move(o));
    int r = newValue({ta.dtype, std::move(shape)}, idx, "j");
    ops_.back().results = {r};
    return r;
}

std::pair<int, int>
Function::split(int v)
{
    // Copy, not reference: the first newValue below may reallocate the
    // value table and invalidate anything typeOf returned.
    const TensorType t = typeOf(v);
    llUserCheck(t.rank() >= 1 && t.shape.back() == 2,
                "split expects a trailing dim of size 2");
    Shape shape = t.shape;
    shape.pop_back();
    Op o;
    o.kind = OpKind::Split;
    o.operands = {v};
    int idx = addOp(std::move(o));
    int r0 = newValue({t.dtype, shape}, idx, "s0");
    int r1 = newValue({t.dtype, shape}, idx, "s1");
    ops_.back().results = {r0, r1};
    return {r0, r1};
}

int
Function::gather(int src, int idx, int axis)
{
    const TensorType &ts = typeOf(src);
    const TensorType &ti = typeOf(idx);
    llUserCheck(ts.rank() == ti.rank(), "gather rank mismatch");
    llUserCheck(axis >= 0 && axis < ts.rank(),
                "gather axis out of range");
    Op o;
    o.kind = OpKind::Gather;
    o.operands = {src, idx};
    o.axis = axis;
    int opIdx = addOp(std::move(o));
    int r = newValue({ts.dtype, ti.shape}, opIdx, "g");
    ops_.back().results = {r};
    return r;
}

int
Function::scan(int v, int axis, const std::string &tag)
{
    const TensorType &t = typeOf(v);
    llUserCheck(axis >= 0 && axis < t.rank(), "scan axis out of range");
    Op o;
    o.kind = OpKind::Scan;
    o.operands = {v};
    o.axis = axis;
    o.tag = tag;
    int idx = addOp(std::move(o));
    int r = newValue({t.dtype, t.shape}, idx, tag);
    ops_.back().results = {r};
    return r;
}

int
Function::convertLayout(int v, const LinearLayout &layout)
{
    Op o;
    o.kind = OpKind::ConvertLayout;
    o.operands = {v};
    int idx = addOp(std::move(o));
    int r = newValue(typeOf(v), idx, "cvt");
    value(r).layout = layout;
    ops_.back().results = {r};
    return r;
}

void
Function::verify() const
{
    for (int i = 0; i < numOps(); ++i) {
        const Op &o = op(i);
        if (o.erased)
            continue;
        for (int v : o.operands)
            llAssert(v >= 0 && v < numValues(),
                     "op " << i << " uses invalid value " << v);
        for (int v : o.results) {
            llAssert(v >= 0 && v < numValues(),
                     "op " << i << " defines invalid value " << v);
            llAssert(value(v).defOp == i, "result def link broken");
        }
    }
}

std::string
Function::print() const
{
    std::ostringstream oss;
    oss << "func @" << name_ << " {\n";
    for (const Op &o : ops_) {
        if (o.erased)
            continue;
        oss << "  ";
        for (size_t i = 0; i < o.results.size(); ++i) {
            oss << "%" << value(o.results[i]).name;
            if (i + 1 < o.results.size())
                oss << ", ";
        }
        if (!o.results.empty())
            oss << " = ";
        oss << toString(o.kind);
        if (!o.tag.empty())
            oss << "<" << o.tag << ">";
        if (o.axis >= 0)
            oss << " axis=" << o.axis;
        if (!o.order.empty())
            oss << " order=" << ll::toString(o.order);
        for (size_t i = 0; i < o.operands.size(); ++i) {
            oss << (i == 0 ? " " : ", ") << "%"
                << value(o.operands[i]).name;
        }
        if (!o.results.empty())
            oss << " : " << value(o.results[0]).type.toString();
        oss << "\n";
    }
    oss << "}\n";
    return oss.str();
}

} // namespace ir
} // namespace ll
