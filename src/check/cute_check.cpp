#include "check/cute_check.h"

#include <fstream>
#include <sstream>

#include "support/diagnostics.h"

namespace ll {
namespace check {

namespace {

int64_t
floorPow2(int64_t v)
{
    int64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

int64_t
randRange(std::mt19937 &rng, int64_t lo, int64_t hi)
{
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

int64_t
randomExtent(std::mt19937 &rng, const CuteGenOptions &opt,
             int64_t elemsSoFar)
{
    if (randRange(rng, 0, 5) == 0)
        return 1; // size-1 modes are a corner worth hitting often
    int64_t cap = opt.maxElements / std::max<int64_t>(elemsSoFar, 1);
    if (cap < 2)
        return 1;
    return randRange(rng, 2, std::min(opt.maxExtent, cap));
}

int64_t
randomStride(std::mt19937 &rng, const CuteGenOptions &opt)
{
    if (opt.allowZeroStride && randRange(rng, 0, 5) == 0)
        return 0; // degenerate broadcast stride
    // Mix of small strides (overlap-prone), powers of two, and
    // pow2-minus-one (multi-bit images) to stress both bridge verdicts.
    static const int64_t pool[] = {1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 32};
    if (randRange(rng, 0, 2) == 0)
        return randRange(rng, 1, 48);
    return pool[randRange(rng, 0, std::size(pool) - 1)];
}

} // namespace

cute::CuteLayout
randomCuteLayout(std::mt19937 &rng, const CuteGenOptions &opt)
{
    int modes = static_cast<int>(randRange(rng, 1, opt.maxModes));
    std::vector<cute::IntTuple> shapeKids, strideKids;
    int64_t elems = 1;
    for (int m = 0; m < modes; ++m) {
        bool nested = opt.allowNested && randRange(rng, 0, 3) == 0;
        int leaves = nested ? 2 : 1;
        std::vector<cute::IntTuple> ss, ds;
        for (int l = 0; l < leaves; ++l) {
            int64_t e = randomExtent(rng, opt, elems);
            elems *= e;
            ss.emplace_back(e);
            ds.emplace_back(randomStride(rng, opt));
        }
        if (nested) {
            shapeKids.push_back(cute::IntTuple::node(std::move(ss)));
            strideKids.push_back(cute::IntTuple::node(std::move(ds)));
        } else {
            shapeKids.push_back(ss[0]);
            strideKids.push_back(ds[0]);
        }
    }
    return cute::CuteLayout(cute::IntTuple::node(std::move(shapeKids)),
                            cute::IntTuple::node(std::move(strideKids)));
}

sim::GpuSpec
CuteCase::spec() const
{
    return specByName(specName);
}

CuteCase
randomCuteCase(std::mt19937 &rng, const CuteGenOptions &opt)
{
    int rank = static_cast<int>(randRange(rng, 1, 3));
    static const int64_t extentPool[] = {2, 3, 4, 5, 6, 7, 8, 10, 12, 16};
    std::vector<int64_t> shape;
    int64_t elems = 1;
    for (int k = 0; k < rank; ++k) {
        int64_t e =
            extentPool[randRange(rng, 0, std::size(extentPool) - 1)];
        if (elems * e > opt.maxElements)
            e = 2;
        shape.push_back(e);
        elems *= e;
    }
    // Each side: compact in a random permuted order, with optional
    // padding gaps so storage is a strict (but not dense) tiling.
    auto makeSide = [&](std::string &desc) {
        std::vector<int> perm(shape.size());
        for (size_t i = 0; i < perm.size(); ++i)
            perm[i] = static_cast<int>(i);
        std::shuffle(perm.begin(), perm.end(), rng);
        std::vector<int64_t> stride(shape.size());
        int64_t run = 1;
        std::ostringstream os;
        for (size_t k = 0; k < perm.size(); ++k) {
            stride[perm[k]] = run;
            int64_t pad = randRange(rng, 0, 2) == 0 ? 1 : 0;
            run *= shape[perm[k]] + pad;
            os << (k ? "." : "") << perm[k] << (pad ? "+" : "");
        }
        desc = os.str();
        return cute::CuteLayout::fromFlat(shape, stride);
    };
    CuteCase c;
    std::string srcDesc, dstDesc;
    c.request.src = makeSide(srcDesc);
    c.request.dst = makeSide(dstDesc);
    static const int widths[] = {1, 2, 4};
    c.request.elemBytes =
        widths[randRange(rng, 0, std::size(widths) - 1)];
    c.request.numWarps = 4;
    static const char *specs[] = {"gh200", "rtx4090", "mi250"};
    c.specName = specs[randRange(rng, 0, 2)];
    std::ostringstream os;
    for (size_t k = 0; k < shape.size(); ++k)
        os << (k ? "x" : "") << shape[k];
    os << " cute " << srcDesc << "->" << dstDesc << " @" << c.specName
       << " b" << c.request.elemBytes;
    c.summary = os.str();
    return c;
}

std::string
CuteOracleReport::toString() const
{
    std::ostringstream os;
    os << (ok() ? "OK" : "FAIL") << " elements=" << elementsChecked
       << " mismatches=" << mismatches << " core=" << coreElems
       << " remainder=" << remainderElems << " windows=" << windows;
    if (!planned)
        os << " (not planned)";
    if (!structureOk)
        os << " (structure)";
    if (coreAudited && !coreReport.ok())
        os << " (core: " << coreReport.toString() << ")";
    if (!detail.empty())
        os << " :: " << detail;
    return os.str();
}

CuteOracleReport
checkCutePlan(const cute::CutePlan &plan,
              const cute::CuteConversionRequest &req,
              const sim::GpuSpec &spec)
{
    CuteOracleReport report;
    report.planned = true;

    constexpr uint64_t kUnset = ~uint64_t(0);
    std::vector<uint64_t> srcBuf(
        static_cast<size_t>(req.src.cosize()), kUnset);
    // Tag each storage slot that carries an element. Reading the
    // buffer back (rather than trusting the loop tag) keeps the oracle
    // honest when src is non-injective: the last writer wins on both
    // sides of the comparison.
    for (int64_t i = 0; i < req.src.size(); ++i)
        srcBuf[static_cast<size_t>(req.src(i))] =
            static_cast<uint64_t>(i) + 1;
    std::vector<uint64_t> dstBuf(
        static_cast<size_t>(req.dst.cosize()), kUnset);

    auto stats = cute::executeCutePlan(plan, req, srcBuf, dstBuf);
    report.coreElems = stats.coreElems;
    report.remainderElems = stats.remainderElems;
    report.windows = stats.windows;
    if (stats.coreElems != plan.coreElems ||
        stats.remainderElems != plan.remainderElems) {
        report.structureOk = false;
        report.detail = "execution stats disagree with the plan's "
                        "core/remainder split";
    }

    for (int64_t i = 0; i < req.src.size(); ++i) {
        ++report.elementsChecked;
        uint64_t want = srcBuf[static_cast<size_t>(req.src(i))];
        uint64_t got = dstBuf[static_cast<size_t>(req.dst(i))];
        if (want != got) {
            ++report.mismatches;
            if (report.detail.empty()) {
                std::ostringstream os;
                os << "logical " << i << ": dst slot " << req.dst(i)
                   << " holds " << got << ", wanted " << want;
                report.detail = os.str();
            }
        }
    }

    if (plan.hasCorePlan) {
        report.coreAudited = true;
        report.coreReport = checkPlan(plan.corePlan, plan.coreSrc,
                                      plan.coreDst, req.elemBytes, spec);
        if (!report.coreReport.ok() && report.detail.empty())
            report.detail = "core plan audit: " +
                            report.coreReport.toString();
    }
    return report;
}

CuteOracleReport
checkCuteCase(const CuteCase &c)
{
    auto spec = c.spec();
    auto plan = cute::tryPlanCuteConversion(c.request, spec);
    if (!plan) {
        CuteOracleReport report;
        report.detail = plan.diag().toString();
        return report;
    }
    return checkCutePlan(*plan, c.request, spec);
}

// ---------------------------------------------------------------------
// Corpus IO
// ---------------------------------------------------------------------

void
writeCuteCase(std::ostream &os, const CuteCase &c)
{
    os << "# cute conversion case\n";
    os << "spec " << c.specName << "\n";
    os << "elemBytes " << c.request.elemBytes << "\n";
    os << "numWarps " << c.request.numWarps << "\n";
    if (!c.summary.empty())
        os << "summary " << c.summary << "\n";
    os << "src " << c.request.src.toString() << "\n";
    os << "dst " << c.request.dst.toString() << "\n";
}

CuteCase
readCuteCase(std::istream &is)
{
    CuteCase c;
    bool haveSrc = false, haveDst = false;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key) || key[0] == '#')
            continue;
        std::string rest;
        std::getline(ls, rest);
        size_t start = rest.find_first_not_of(" \t");
        rest = start == std::string::npos ? "" : rest.substr(start);
        if (key == "spec") {
            c.specName = rest;
        } else if (key == "elemBytes") {
            c.request.elemBytes = std::stoi(rest);
        } else if (key == "numWarps") {
            c.request.numWarps = std::stoi(rest);
        } else if (key == "summary") {
            c.summary = rest;
        } else if (key == "src") {
            c.request.src = cute::CuteLayout::parse(rest);
            haveSrc = true;
        } else if (key == "dst") {
            c.request.dst = cute::CuteLayout::parse(rest);
            haveDst = true;
        } else {
            llUserCheck(false,
                        "cute case: unknown key \"" << key << "\"");
        }
    }
    llUserCheck(haveSrc && haveDst,
                "cute case: missing src or dst layout");
    return c;
}

void
writeCuteCaseFile(const std::string &path, const CuteCase &c)
{
    std::ofstream os(path);
    llUserCheck(os.good(), "cannot open " << path << " for writing");
    writeCuteCase(os, c);
}

CuteCase
readCuteCaseFile(const std::string &path)
{
    std::ifstream is(path);
    llUserCheck(is.good(), "cannot open " << path);
    return readCuteCase(is);
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace {

/** All one-step shrink candidates of a layout, flattened form. */
std::vector<cute::CuteLayout>
layoutShrinkMoves(const cute::CuteLayout &layout)
{
    std::vector<cute::CuteLayout> out;
    const auto &shape = layout.flatShape();
    const auto &stride = layout.flatStride();
    // Flatten nesting first: a strictly simpler, same-function layout.
    if (layout.shape().depth() > 1 && shape.size() > 1)
        out.push_back(cute::CuteLayout::fromFlat(shape, stride));
    for (size_t k = 0; k < shape.size(); ++k) {
        if (shape.size() > 1) { // drop mode k entirely
            auto s = shape;
            auto d = stride;
            s.erase(s.begin() + k);
            d.erase(d.begin() + k);
            out.push_back(cute::CuteLayout::fromFlat(s, d));
        }
        auto tweak = [&](int64_t e, int64_t d) {
            auto s2 = shape;
            auto d2 = stride;
            s2[k] = e;
            d2[k] = d;
            if (s2 != shape || d2 != stride)
                out.push_back(cute::CuteLayout::fromFlat(s2, d2));
        };
        if (shape[k] > 1) {
            tweak(shape[k] / 2, stride[k]);
            tweak(floorPow2(shape[k]), stride[k]);
            tweak(shape[k] - 1, stride[k]);
        }
        if (stride[k] > 0) {
            tweak(shape[k], 0);
            tweak(shape[k], stride[k] / 2);
        }
    }
    return out;
}

} // namespace

cute::CuteLayout
shrinkCuteLayout(const cute::CuteLayout &failing,
                 const CuteLayoutPredicate &stillFails, int maxChecks)
{
    cute::CuteLayout best = failing;
    int checks = 0;
    bool progressed = true;
    while (progressed && checks < maxChecks) {
        progressed = false;
        for (const auto &cand : layoutShrinkMoves(best)) {
            if (++checks > maxChecks)
                break;
            bool fails = false;
            try {
                fails = stillFails(cand);
            } catch (const std::exception &) {
                fails = true; // a crash is a failure too
            }
            if (fails) {
                best = cand;
                progressed = true;
                break;
            }
        }
    }
    return best;
}

CuteShrinkResult
shrinkCuteCase(const CuteCase &failing, const CuteCaseChecker &checker,
               int maxChecks)
{
    // Canonicalize both sides to flat, size-1-free form so logical
    // dims align index-for-index (same function on the shared domain).
    auto canonical = [](const cute::CuteLayout &l) {
        std::vector<int64_t> s, d;
        for (size_t i = 0; i < l.flatShape().size(); ++i) {
            if (l.flatShape()[i] == 1)
                continue;
            s.push_back(l.flatShape()[i]);
            d.push_back(l.flatStride()[i]);
        }
        if (s.empty()) {
            s.push_back(1);
            d.push_back(0);
        }
        return cute::CuteLayout::fromFlat(s, d);
    };
    CuteShrinkResult result;
    result.minimized = failing;
    result.minimized.request.src = canonical(failing.request.src);
    result.minimized.request.dst = canonical(failing.request.dst);

    auto accepts = [&](const CuteCase &cand) {
        try {
            auto report = checker(cand);
            if (!report.ok()) {
                result.report = report;
                result.exceptionMessage.clear();
                return true;
            }
        } catch (const std::exception &e) {
            result.exceptionMessage = e.what();
            return true;
        }
        return false;
    };

    int checks = 0;
    bool progressed = true;
    while (progressed && checks < maxChecks) {
        progressed = false;
        const auto &src = result.minimized.request.src;
        const auto &dst = result.minimized.request.dst;
        std::vector<CuteCase> cands;
        size_t rank = src.flatShape().size();
        for (size_t k = 0; k < rank; ++k) {
            auto mutate = [&](int64_t newExtent, bool drop) {
                auto ss = src.flatShape(), sd = src.flatStride();
                auto ds = dst.flatShape(), dd = dst.flatStride();
                if (drop) {
                    if (rank == 1)
                        return;
                    ss.erase(ss.begin() + k);
                    sd.erase(sd.begin() + k);
                    ds.erase(ds.begin() + k);
                    dd.erase(dd.begin() + k);
                } else {
                    if (newExtent == ss[k] || newExtent < 1)
                        return;
                    ss[k] = newExtent;
                    ds[k] = newExtent;
                }
                CuteCase cand = result.minimized;
                cand.request.src = cute::CuteLayout::fromFlat(ss, sd);
                cand.request.dst = cute::CuteLayout::fromFlat(ds, dd);
                cands.push_back(std::move(cand));
            };
            mutate(0, /*drop=*/true);
            mutate(src.flatShape()[k] / 2, false);
            mutate(floorPow2(src.flatShape()[k]), false);
            mutate(src.flatShape()[k] - 1, false);
        }
        if (result.minimized.request.elemBytes > 1) {
            CuteCase cand = result.minimized;
            cand.request.elemBytes = 1;
            cands.push_back(std::move(cand));
        }
        for (const auto &cand : cands) {
            if (++checks > maxChecks)
                break;
            if (accepts(cand)) {
                result.minimized = cand;
                ++result.steps;
                progressed = true;
                break;
            }
        }
    }
    return result;
}

} // namespace check
} // namespace ll
