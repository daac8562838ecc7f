#include "kernels.h"

namespace ll {
namespace kernels {

using ir::DType;
using ir::Function;

namespace {

/** A K-blocked GEMM tile: several dot steps accumulating, as the inner
 *  loop of a Triton GEMM does. */
Function
gemmLike(const std::string &name, DType aTy, DType bTy, int32_t size,
         bool upcastB, DType upcastTo)
{
    Function f(name);
    const int32_t m = size, n = size, kStep = 64;
    int acc = f.constant({DType::F32, {m, n}}, "zero");
    for (int step = 0; step < 2; ++step) {
        int a = f.load({aTy, {m, kStep}}, "a" + std::to_string(step));
        int b = f.load({bTy, {kStep, n}}, "b" + std::to_string(step));
        if (upcastB)
            b = f.elementwise({b}, upcastTo, "upcast");
        int c = f.dot(a, b, DType::F32);
        acc = f.elementwise({acc, c}, DType::F32, "add");
    }
    int out = f.elementwise({acc}, aTy == DType::I4 ? DType::F16 : aTy,
                            "downcast");
    f.store(out, "c");
    return f;
}

/** Softmax over the last dim: max, subtract, exp, sum, divide. */
int
appendSoftmax(Function &f, int scores, int32_t rows, int32_t cols)
{
    int mx = f.reduce(scores, 1, "max");
    int mxe = f.expandDims(mx, 1);
    int mxb = f.broadcast(mxe, {rows, cols});
    int centered = f.elementwise({scores, mxb}, DType::F32, "sub");
    int ex = f.elementwise({centered}, DType::F32, "exp");
    int sum = f.reduce(ex, 1, "sum");
    int sume = f.expandDims(sum, 1);
    int sumb = f.broadcast(sume, {rows, cols});
    return f.elementwise({ex, sumb}, DType::F32, "div");
}

} // namespace

Function
gemm(int32_t size)
{
    return gemmLike("gemm", DType::F16, DType::F16, size, false,
                    DType::F16);
}

Function
fp8Gemm(int32_t size)
{
    return gemmLike("fp8_gemm", DType::F8, DType::F8, size, false,
                    DType::F8);
}

Function
bf16xint16Gemm(int32_t size)
{
    return gemmLike("bf16xint16_gemm", DType::BF16, DType::I16, size,
                    true, DType::BF16);
}

Function
int4Gemm(int32_t size)
{
    return gemmLike("int4_gemm", DType::F16, DType::I4, size, true,
                    DType::F16);
}

Function
groupedGemm(int32_t size)
{
    Function f("grouped_gemm");
    const int32_t m = size, n = size, k = 64;
    int a = f.load({DType::F16, {m, k}}, "a");
    int b0 = f.load({DType::F16, {k, n}}, "b0");
    int b1 = f.load({DType::F16, {k, n}}, "b1");
    int c0 = f.dot(a, b0, DType::F32);
    int c1 = f.dot(a, b1, DType::F32);
    int c = f.elementwise({c0, c1}, DType::F32, "add");
    int out = f.elementwise({c}, DType::F16, "downcast");
    f.store(out, "c");
    return f;
}

Function
templateAttention(int32_t size)
{
    Function f("template_attention");
    const int32_t m = size, n = size, d = 64;
    int q = f.load({DType::F16, {m, d}}, "q");
    int kT = f.load({DType::F16, {d, n}}, "kT");
    int scores = f.dot(q, kT, DType::F32);
    int p = appendSoftmax(f, scores, m, n);
    int pf16 = f.elementwise({p}, DType::F16, "downcast");
    int v = f.load({DType::F16, {n, d}}, "v");
    // The second dot: its A operand is an MMA output, forcing the
    // conversion the paper highlights.
    int o = f.dot(pf16, v, DType::F32);
    int out = f.elementwise({o}, DType::F16, "downcast");
    f.store(out, "o");
    return f;
}

Function
flexAttention(int32_t size)
{
    Function f("flex_attention");
    const int32_t m = size, n = size, d = 64;
    int q = f.load({DType::F16, {m, d}}, "q");
    int kT = f.load({DType::F16, {d, n}}, "kT");
    int scores = f.dot(q, kT, DType::F32);
    // score_mod: user elementwise function plus a mask load.
    int mask = f.load({DType::F32, {m, n}}, "mask");
    int modded = f.elementwise({scores, mask}, DType::F32, "score_mod");
    int p = appendSoftmax(f, modded, m, n);
    int pf16 = f.elementwise({p}, DType::F16, "downcast");
    int v = f.load({DType::F16, {n, d}}, "v");
    int o = f.dot(pf16, v, DType::F32);
    int out = f.elementwise({o}, DType::F16, "downcast");
    f.store(out, "o");
    return f;
}

Function
softmax(int32_t size)
{
    Function f("softmax");
    int x = f.load({DType::F32, {4, size}}, "x");
    int y = appendSoftmax(f, x, 4, size);
    f.store(y, "y");
    return f;
}

Function
welford(int32_t size)
{
    Function f("welford");
    const int32_t rows = 4, cols = size;
    int x = f.load({DType::F32, {rows, cols}}, "x");
    int sum = f.reduce(x, 1, "sum");
    int mean = f.elementwise({sum}, DType::F32, "div_n");
    int meane = f.expandDims(mean, 1);
    int meanb = f.broadcast(meane, {rows, cols});
    int diff = f.elementwise({x, meanb}, DType::F32, "sub");
    int sq = f.elementwise({diff}, DType::F32, "mul");
    int m2 = f.reduce(sq, 1, "sum");
    f.store(mean, "mean");
    f.store(m2, "m2");
    return f;
}

Function
layerNorm(int32_t size)
{
    Function f("layer_norm");
    const int32_t rows = 4, cols = size;
    int x = f.load({DType::F32, {rows, cols}}, "x");
    int w = f.load({DType::F32, {1, cols}}, "w");
    int b = f.load({DType::F32, {1, cols}}, "b");
    int sum = f.reduce(x, 1, "sum");
    int mean = f.elementwise({sum}, DType::F32, "div_n");
    int meane = f.expandDims(mean, 1);
    int meanb = f.broadcast(meane, {rows, cols});
    int diff = f.elementwise({x, meanb}, DType::F32, "sub");
    int sq = f.elementwise({diff}, DType::F32, "mul");
    int var = f.reduce(sq, 1, "sum");
    int vare = f.expandDims(var, 1);
    int varb = f.broadcast(vare, {rows, cols});
    int normed = f.elementwise({diff, varb}, DType::F32, "rsqrt_mul");
    int wb = f.broadcast(w, {rows, cols});
    int bb = f.broadcast(b, {rows, cols});
    int scaled = f.elementwise({normed, wb}, DType::F32, "mul");
    int out = f.elementwise({scaled, bb}, DType::F32, "add");
    f.store(out, "y");
    return f;
}

Function
rope(int32_t size)
{
    Function f("rope");
    const int32_t s = size, d = 128;
    int x = f.load({DType::F16, {s, d}}, "x");
    int cs = f.load({DType::F16, {s, d / 2}}, "cos");
    int sn = f.load({DType::F16, {s, d / 2}}, "sin");
    // Interpret x as interleaved pairs: reshape to [s, d/2, 2], split.
    int xr = f.reshape(x, {s, d / 2, 2});
    auto [x0, x1] = f.split(xr);
    int a = f.elementwise({x0, cs}, DType::F16, "mul");
    int b = f.elementwise({x1, sn}, DType::F16, "mul");
    int r0 = f.elementwise({a, b}, DType::F16, "sub");
    int c = f.elementwise({x0, sn}, DType::F16, "mul");
    int d1 = f.elementwise({x1, cs}, DType::F16, "mul");
    int r1 = f.elementwise({c, d1}, DType::F16, "add");
    int joined = f.join(r0, r1);
    int out = f.reshape(joined, {s, d});
    f.store(out, "y");
    return f;
}

Function
embedding(int32_t size)
{
    Function f("embedding");
    const int32_t tokens = size, dim = 128;
    int table = f.load({DType::F16, {tokens, dim}}, "rows");
    int idx = f.load({DType::I32, {tokens, dim}}, "idx");
    int g = f.gather(table, idx, 0);
    f.store(g, "out");
    return f;
}

Function
gatherGemv(int32_t size)
{
    Function f("gather_gemv");
    const int32_t rows = size, cols = 128;
    int x = f.load({DType::F16, {rows, cols}}, "x");
    int idx = f.load({DType::I32, {rows, cols}}, "idx");
    int g = f.gather(x, idx, 1);
    int v = f.load({DType::F16, {rows, cols}}, "v");
    int prod = f.elementwise({g, v}, DType::F16, "mul");
    int y = f.reduce(prod, 1, "sum");
    f.store(y, "y");
    return f;
}

Function
cumsum(int32_t size)
{
    // The tl.cumsum workload from the layout-bug reports the paper
    // cites (Section 5.1): sum and scan in one kernel.
    Function f("cumsum");
    int x = f.load({DType::F32, {4, size}}, "x");
    int s = f.scan(x, 1, "cumsum");
    int total = f.reduce(x, 1, "sum");
    f.store(s, "prefix");
    f.store(total, "total");
    return f;
}

std::vector<KernelSpec>
allKernels()
{
    std::vector<KernelSpec> specs = {
        {"gemm", {64, 128, 256}, gemm, false, false},
        {"fp8_gemm", {64, 128, 256}, fp8Gemm, true, false},
        {"bf16xint16_gemm", {64, 128, 256}, bf16xint16Gemm, false, false},
        {"int4_gemm", {64, 128, 256}, int4Gemm, false, false},
        {"grouped_gemm", {64, 128, 256}, groupedGemm, false, false},
        {"template_attention", {64, 128}, templateAttention, false,
         false},
        {"flex_attention", {64, 128}, flexAttention, false, true},
        {"softmax", {1024, 4096, 16384}, softmax, false, false},
        {"welford", {1024, 4096}, welford, false, false},
        {"layer_norm", {1024, 4096}, layerNorm, false, false},
        {"rope", {256, 1024}, rope, false, false},
        {"embedding", {128, 512}, embedding, false, false},
        {"gather_gemv", {128, 512}, gatherGemv, false, false},
        {"cumsum", {1024, 4096}, cumsum, false, false},
    };
    return specs;
}

std::vector<std::pair<ir::DType, ir::DType>>
mixedPrecisionPairs()
{
    using ir::DType;
    return {
        {DType::I16, DType::F16}, {DType::I16, DType::F32},
        {DType::I16, DType::F64}, {DType::I16, DType::F8},
        {DType::I32, DType::F16}, {DType::I32, DType::F64},
        {DType::I32, DType::F8},  {DType::I64, DType::F16},
        {DType::I64, DType::F32}, {DType::I64, DType::F8},
        {DType::I8, DType::F16},  {DType::I8, DType::F32},
        {DType::I8, DType::F64},  {DType::I8, DType::F8},
    };
}

const std::vector<std::array<int32_t, 3>> &
mixedPrecisionShapes()
{
    static const std::vector<std::array<int32_t, 3>> shapes = {
        {16, 16, 32},   {32, 32, 32},  {16, 8, 32},   {64, 64, 64},
        {32, 16, 128},  {8, 8, 32},    {128, 128, 64}, {16, 16, 64},
        {64, 32, 32},   {32, 64, 64},  {16, 32, 32},  {64, 16, 64},
    };
    return shapes;
}

ir::Function
mixedPrecisionDot(ir::DType a, ir::DType b,
                  const std::array<int32_t, 3> &shape)
{
    ir::Function f("dot");
    int va = f.load({a, {shape[0], shape[2]}});
    int vb = f.load({b, {shape[2], shape[1]}});
    int acc = f.dot(va, vb, ir::DType::F32);
    f.store(acc);
    return f;
}

} // namespace kernels
} // namespace ll
