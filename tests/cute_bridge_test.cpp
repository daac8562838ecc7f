/**
 * @file
 * The CuteLayout <-> LinearLayout bridge, proven exact, plus the
 * non-pow2 admission path end to end.
 *
 *  - isLinearizable is exact in both directions: accepted layouts
 *    round-trip bit-for-bit through toLinear (applyFlat agrees with
 *    integer evaluation everywhere), and every rejected pow2-extent
 *    layout carries an explicit XOR-linearity witness.
 *  - isDelinearizable mirrors it: every layout in the committed
 *    40-case F2 corpus bridges fromLinear -> toLinear bit-identically,
 *    and planning the bridged pair yields the same describePlan FNV
 *    digest as planning the originals; XOR-swizzles are rejected with
 *    the overlapping pair named.
 *  - Previously-rejected non-pow2 shapes — (3,5,7), (25,4), (50257),
 *    (12,100) — plan and execute end to end, audited by the
 *    tagged-buffer oracle, through the planner, the service (with plan
 *    cache sharing), and the engine entry point.
 *  - The committed `.cute` corpus replays through the admission oracle
 *    (check::checkCuteCase) on every run.
 */

#include <algorithm>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/case_io.h"
#include "check/cute_check.h"
#include "check/generators.h"
#include "codegen/conversion.h"
#include "cute/admit.h"
#include "cute/bridge.h"
#include "service/cute_service.h"
#include "service/plan_cache.h"

namespace ll {
namespace cute {
namespace {

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::vector<std::string>
corpusFiles(const std::string &ext)
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
        if (entry.path().extension() == ext)
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

bool
allPow2Extents(const CuteLayout &l)
{
    for (int64_t e : l.flatShape()) {
        if ((e & (e - 1)) != 0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// isLinearizable: exact in both directions.
// ---------------------------------------------------------------------

TEST(CuteBridgeTest, LinearizableKnownExamples)
{
    // Non-pow2 stride is fine: 2:3 has basis image 0b11.
    EXPECT_TRUE(isLinearizable(CuteLayout::make1D(2, 3)));
    EXPECT_TRUE(isLinearizable(CuteLayout::parse("(4,8):(8,1)")));
    // Zero strides (broadcast) are linear.
    EXPECT_TRUE(isLinearizable(CuteLayout::parse("(4,2):(0,1)")));
    // Overlapping bit images carry: (2,2):(1,3) maps 3 to 1+3=4, not
    // 1^3=2.
    EXPECT_FALSE(isLinearizable(CuteLayout::parse("(2,2):(1,3)")));
    // Non-pow2 extents are outside F2 entirely.
    EXPECT_FALSE(isLinearizable(CuteLayout::make1D(3)));
    EXPECT_FALSE(isLinearizable(CuteLayout::parse("(3,5,7):(1,3,15)")));
}

TEST(CuteBridgeTest, AcceptedLayoutsRoundTripBitForBit)
{
    std::mt19937 rng(11);
    check::CuteGenOptions opt;
    opt.maxElements = 1 << 11;
    int accepted = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        CuteLayout l = check::randomCuteLayout(rng, opt);
        if (!isLinearizable(l))
            continue;
        ++accepted;
        Result<LinearLayout> lin = toLinear(l);
        ASSERT_TRUE(lin.ok()) << l.toString() << ": "
                              << lin.diag().message;
        for (int64_t i = 0; i < l.size(); ++i)
            ASSERT_EQ(static_cast<uint64_t>(l(i)),
                      lin->applyFlat(static_cast<uint64_t>(i)))
                << l.toString() << " at " << i;
        // And back: fromLinear accepts (the bridge never produces a
        // swizzle) and evaluates identically.
        Result<CuteLayout> back = fromLinear(*lin);
        ASSERT_TRUE(back.ok()) << l.toString();
        for (int64_t i = 0; i < l.size(); ++i)
            ASSERT_EQ((*back)(i), l(i)) << l.toString();
        // toLinear of the round-tripped layout is bit-identical.
        Result<LinearLayout> again = toLinear(*back);
        ASSERT_TRUE(again.ok());
        ASSERT_TRUE(*again == *lin) << l.toString();
    }
    EXPECT_GT(accepted, 300);
}

TEST(CuteBridgeTest, RejectionsCarryAWitnessExhaustive)
{
    // Exhaustive over pow2-extent layouts with overlap-prone strides:
    // every rejection must exhibit concrete x, y with
    // L(x^y) != L(x) ^ L(y); every acceptance must have none (we trust
    // AcceptedLayoutsRoundTripBitForBit for the positive direction and
    // spot-check the witness is truly absent).
    std::vector<int64_t> strides = {0, 1, 2, 3, 4, 5, 6, 7, 8, 12};
    int rejected = 0;
    for (int64_t s0 : {1, 2, 4}) {
        for (int64_t s1 : {1, 2, 4}) {
            for (int64_t d0 : strides) {
                for (int64_t d1 : strides) {
                    CuteLayout l =
                        CuteLayout::fromFlat({s0, s1}, {d0, d1});
                    auto [x, y] = linearityWitness(l);
                    if (isLinearizable(l)) {
                        EXPECT_EQ(x, -1) << l.toString();
                        EXPECT_EQ(y, -1) << l.toString();
                        continue;
                    }
                    ++rejected;
                    ASSERT_GE(x, 0) << l.toString();
                    ASSERT_GE(y, 0) << l.toString();
                    ASSERT_LT(x, l.size()) << l.toString();
                    ASSERT_LT(y, l.size()) << l.toString();
                    ASSERT_NE(l(x ^ y), l(x) ^ l(y))
                        << l.toString() << " witness (" << x << ", "
                        << y << ")";
                }
            }
        }
    }
    EXPECT_GT(rejected, 50);
}

TEST(CuteBridgeTest, RejectionsCarryAWitnessRandom)
{
    std::mt19937 rng(23);
    check::CuteGenOptions opt;
    opt.maxElements = 1 << 11;
    int rejected = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        CuteLayout l = check::randomCuteLayout(rng, opt);
        if (!allPow2Extents(l) || isLinearizable(l))
            continue;
        ++rejected;
        auto [x, y] = linearityWitness(l);
        ASSERT_GE(x, 0) << l.toString();
        ASSERT_NE(l(x ^ y), l(x) ^ l(y)) << l.toString();
        // The rejection is genuine: toLinear must decline too.
        EXPECT_FALSE(toLinear(l).ok()) << l.toString();
    }
    EXPECT_GT(rejected, 100);
}

TEST(CuteBridgeTest, NonPow2ExtentsHaveNoXorWitness)
{
    // XOR is undefined on a non-pow2 domain; the witness must decline
    // rather than fabricate one.
    auto [x, y] = linearityWitness(CuteLayout::make1D(3));
    EXPECT_EQ(x, -1);
    EXPECT_EQ(y, -1);
}

// ---------------------------------------------------------------------
// The reverse bridge over the committed F2 corpus.
// ---------------------------------------------------------------------

TEST(CuteBridgeTest, CorpusLayoutsRoundTripBitIdentical)
{
    std::vector<std::string> files = corpusFiles(".txt");
    ASSERT_GE(files.size(), 40u);
    int layouts = 0;
    for (const std::string &path : files) {
        check::ConversionCase c = check::readCaseFile(path);
        for (const LinearLayout *l : {&c.src, &c.dst}) {
            ++layouts;
            ASSERT_TRUE(isDelinearizable(*l)) << path;
            Result<CuteLayout> cl = fromLinear(*l);
            ASSERT_TRUE(cl.ok()) << path << ": " << cl.diag().message;
            // Same function on every flattened index.
            for (uint64_t i = 0;
                 i < static_cast<uint64_t>(l->getTotalInDimSize());
                 ++i) {
                ASSERT_EQ(static_cast<uint64_t>((*cl)(
                              static_cast<int64_t>(i))),
                          l->applyFlat(i))
                    << path << " at " << i;
            }
            // And toLinear with the original dim names reproduces the
            // layout *bit-identically* (operator== covers dim names,
            // bases, and out sizes).
            std::vector<LinearLayout::DimSize> inDims;
            for (const std::string &d : l->getInDimNames())
                inDims.emplace_back(d, l->getInDimSize(d));
            Result<LinearLayout> lin = toLinear(*cl, inDims,
                                                l->getOutDims());
            ASSERT_TRUE(lin.ok()) << path << ": "
                                  << lin.diag().message;
            ASSERT_TRUE(*lin == *l) << path;
        }
    }
    EXPECT_GE(layouts, 80);
}

TEST(CuteBridgeTest, CorpusPlansThroughBridgeShareTheDigest)
{
    // Planning the bridged pair must be indistinguishable from
    // planning the originals: same describePlan rendering, compared by
    // FNV digest.
    int planned = 0;
    for (const std::string &path : corpusFiles(".txt")) {
        check::ConversionCase c = check::readCaseFile(path);
        if (!c.failpoints.empty())
            continue;
        sim::GpuSpec spec = c.spec();
        Result<codegen::ConversionPlan> direct =
            codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
        CuteLayout cuteSrc = *fromLinear(c.src);
        CuteLayout cuteDst = *fromLinear(c.dst);
        std::vector<LinearLayout::DimSize> srcDims, dstDims;
        for (const std::string &d : c.src.getInDimNames())
            srcDims.emplace_back(d, c.src.getInDimSize(d));
        for (const std::string &d : c.dst.getInDimNames())
            dstDims.emplace_back(d, c.dst.getInDimSize(d));
        Result<LinearLayout> bridgedSrc =
            toLinear(cuteSrc, srcDims, c.src.getOutDims());
        Result<LinearLayout> bridgedDst =
            toLinear(cuteDst, dstDims, c.dst.getOutDims());
        ASSERT_TRUE(bridgedSrc.ok() && bridgedDst.ok()) << path;
        Result<codegen::ConversionPlan> bridged =
            codegen::tryPlanConversion(*bridgedSrc, *bridgedDst,
                                       c.elemBytes, spec);
        ASSERT_EQ(direct.ok(), bridged.ok()) << path;
        if (!direct.ok())
            continue;
        ++planned;
        EXPECT_EQ(fnv1a(codegen::describePlan(*direct)),
                  fnv1a(codegen::describePlan(*bridged)))
            << path;
    }
    EXPECT_GE(planned, 30);
}

TEST(CuteBridgeTest, SwizzlesAreRejectedFromLinear)
{
    // A 4x4 XOR-swizzle: the lane bases hit dim0 ^ dim1 on purpose.
    LinearLayout::BasesT bases;
    bases["register"] = {{1, 0}, {2, 0}};
    bases["lane"] = {{1, 1}, {2, 2}};
    LinearLayout swizzle(std::move(bases), {{"dim0", 4}, {"dim1", 4}},
                         /*requireSurjective=*/false);
    EXPECT_FALSE(isDelinearizable(swizzle));
    Result<CuteLayout> r = fromLinear(swizzle);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::InvalidInput);
}

// ---------------------------------------------------------------------
// Non-pow2 admission end to end.
// ---------------------------------------------------------------------

check::CuteCase
namedCase(const std::string &srcText, const std::string &dstText,
          int elemBytes, const std::string &summary)
{
    check::CuteCase c;
    c.request.src = CuteLayout::parse(srcText);
    c.request.dst = CuteLayout::parse(dstText);
    c.request.elemBytes = elemBytes;
    c.summary = summary;
    return c;
}

TEST(CuteAdmissionTest, NonPow2ShapesPlanAndExecuteEndToEnd)
{
    // Three-plus shapes the F2 entry points reject outright.
    std::vector<check::CuteCase> cases = {
        namedCase("(3,5,7):(1,3,15)", "(3,5,7):(35,7,1)", 2,
                  "3x5x7 col->row"),
        namedCase("(25,4):(4,1)", "(25,4):(1,25)", 4,
                  "25x4 row->col"),
        namedCase("(50257):(1)", "(50257):(1)", 2, "vocab copy"),
        namedCase("(12,100):(100,1)", "(12,100):(1,12)", 1,
                  "12x100 row->col"),
    };
    for (const check::CuteCase &c : cases) {
        // The strict bridge refuses with the *bridgeable* code, not
        // InvalidInput: these are well-formed requests.
        Result<CutePlan> strict =
            tryBridgeConversion(c.request, c.spec());
        ASSERT_FALSE(strict.ok()) << c.summary;
        EXPECT_EQ(strict.diag().code, DiagCode::NonPow2Bridgeable)
            << c.summary;
        // The total planner admits them...
        check::CuteOracleReport report = check::checkCuteCase(c);
        EXPECT_TRUE(report.ok())
            << c.summary << ": " << report.toString();
        // ...splitting into a pow2 core and a scalar remainder.
        EXPECT_GT(report.remainderElems, 0) << c.summary;
    }
}

TEST(CuteAdmissionTest, Pow2ShapesTakeThePureBridge)
{
    check::CuteCase c = namedCase("(8,16):(16,1)", "(8,16):(1,8)", 2,
                                  "pow2 row->col");
    Result<CutePlan> plan = tryBridgeConversion(c.request, c.spec());
    ASSERT_TRUE(plan.ok()) << plan.diag().message;
    EXPECT_EQ(plan->remainderElems, 0);
    EXPECT_EQ(plan->coreElems, 8 * 16);
    check::CuteOracleReport report = check::checkCutePlan(
        *plan, c.request, c.spec());
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CuteAdmissionTest, MalformedStaysInvalidInput)
{
    // Mismatched logical shapes: malformed, never NonPow2Bridgeable.
    check::CuteCase shapes = namedCase("(3,5):(5,1)", "(4,5):(5,1)", 2,
                                       "shape mismatch");
    Result<CutePlan> r1 =
        tryPlanCuteConversion(shapes.request, shapes.spec());
    ASSERT_FALSE(r1.ok());
    EXPECT_EQ(r1.diag().code, DiagCode::InvalidInput);

    // Aliasing destination (stride 0): two logical elements collide.
    check::CuteCase alias = namedCase("(6):(1)", "(6):(0)", 2,
                                      "aliasing dst");
    Result<CutePlan> r2 =
        tryPlanCuteConversion(alias.request, alias.spec());
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.diag().code, DiagCode::InvalidInput);

    // Bad element width.
    check::CuteCase bytes = namedCase("(6):(1)", "(6):(1)", 3,
                                      "bad elemBytes");
    Result<CutePlan> r3 =
        tryPlanCuteConversion(bytes.request, bytes.spec());
    ASSERT_FALSE(r3.ok());
    EXPECT_EQ(r3.diag().code, DiagCode::InvalidInput);

    // The diagnostic codes render distinctly (stable names callers can
    // switch on).
    EXPECT_EQ(toString(DiagCode::NonPow2Bridgeable),
              "non-pow2-bridgeable");
    EXPECT_NE(toString(DiagCode::NonPow2Bridgeable),
              toString(DiagCode::InvalidInput));
}

TEST(CuteAdmissionTest, CuteCorpusReplaysThroughTheOracle)
{
    std::vector<std::string> files = corpusFiles(".cute");
    ASSERT_GE(files.size(), 4u);
    for (const std::string &path : files) {
        check::CuteCase c = check::readCuteCaseFile(path);
        check::CuteOracleReport rep = check::checkCuteCase(c);
        EXPECT_TRUE(rep.ok()) << path << ": " << rep.toString();
        // Round-trip the corpus format itself.
        std::ostringstream oss;
        check::writeCuteCase(oss, c);
        std::istringstream iss(oss.str());
        check::CuteCase back = check::readCuteCase(iss);
        EXPECT_EQ(back.request.src, c.request.src) << path;
        EXPECT_EQ(back.request.dst, c.request.dst) << path;
        EXPECT_EQ(back.request.elemBytes, c.request.elemBytes) << path;
        EXPECT_EQ(back.specName, c.specName) << path;
    }
}

TEST(CuteAdmissionTest, ServiceSharesTheCoreAcrossRequests)
{
    service::PlanCache cache;
    check::CuteCase a = namedCase("(3,5,7):(1,3,15)",
                                  "(3,5,7):(35,7,1)", 2, "a");
    sim::GpuSpec spec = a.spec();

    service::CuteConversionOutcome first =
        service::serveCuteConversion(&cache, a.request, spec);
    ASSERT_TRUE(first.planned()) << first.error;
    EXPECT_TRUE(first.decomposed);
    EXPECT_FALSE(first.coreFromCache);

    // Same request again: the core ladder plan is served from cache.
    service::CuteConversionOutcome second =
        service::serveCuteConversion(&cache, a.request, spec);
    ASSERT_TRUE(second.planned()) << second.error;
    EXPECT_TRUE(second.coreFromCache);

    // A *different* non-pow2 logical shape with the same floor-pow2
    // core box and storage order hits the same cached core plan.
    check::CuteCase b = namedCase("(3,5,7):(1,3,15)",
                                  "(3,5,7):(35,7,1)", 2, "b");
    b.request.src = CuteLayout::parse("(3,7,7):(1,3,21)");
    b.request.dst = CuteLayout::parse("(3,7,7):(49,7,1)");
    service::CuteConversionOutcome third =
        service::serveCuteConversion(&cache, b.request, spec);
    ASSERT_TRUE(third.planned()) << third.error;
    EXPECT_TRUE(third.coreFromCache);

    // The served plan still passes the oracle.
    check::CuteOracleReport report =
        check::checkCutePlan(*second.plan, a.request, spec);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CuteAdmissionTest, ServiceHandlesScalarOnlyAndMalformed)
{
    service::PlanCache cache;
    sim::GpuSpec spec = check::specByName("gh200");

    // A 1-element core: nothing to plan, still served.
    check::CuteCase tiny = namedCase("(1):(1)", "(1):(1)", 4, "unit");
    service::CuteConversionOutcome unit =
        service::serveCuteConversion(&cache, tiny.request, spec);
    ASSERT_TRUE(unit.planned()) << unit.error;
    EXPECT_FALSE(unit.plan->needsCorePlan());

    check::CuteCase bad = namedCase("(3,5):(5,1)", "(4,5):(5,1)", 2,
                                    "mismatch");
    service::CuteConversionOutcome out =
        service::serveCuteConversion(&cache, bad.request, spec);
    EXPECT_FALSE(out.planned());
    EXPECT_FALSE(out.error.empty());
}

// The entry point a compile uses for a cute relayout is
// service::serveCuteConversion, with the compile's plan cache or none:
// both admit a non-pow2 request and reject a malformed one as
// InvalidInput.
TEST(CuteAdmissionTest, EngineEntryPointAdmitsNonPow2)
{
    const sim::GpuSpec spec = sim::GpuSpec::gh200();
    CuteConversionRequest req;
    req.src = CuteLayout::parse("(12,100):(100,1)");
    req.dst = CuteLayout::parse("(12,100):(1,12)");
    req.elemBytes = 1;
    CuteConversionRequest bad = req;
    bad.dst = CuteLayout::parse("(7,100):(100,1)");

    service::PlanCache cache;
    for (service::PlanCache *c :
         {&cache, static_cast<service::PlanCache *>(nullptr)}) {
        SCOPED_TRACE(c != nullptr ? "with a cache" : "without a cache");
        service::CuteConversionOutcome out =
            service::serveCuteConversion(c, req, spec);
        ASSERT_TRUE(out.planned()) << out.error;
        EXPECT_GT(out.plan->remainderElems, 0);
        check::CuteOracleReport report =
            check::checkCutePlan(*out.plan, req, spec);
        EXPECT_TRUE(report.ok()) << report.toString();

        service::CuteConversionOutcome rejected =
            service::serveCuteConversion(c, bad, spec);
        ASSERT_FALSE(rejected.planned());
        EXPECT_NE(rejected.error.find(ll::toString(DiagCode::InvalidInput)),
                  std::string::npos)
            << rejected.error;
    }
}

TEST(CuteAdmissionTest, RandomCasesSustainTheOracle)
{
    // A small in-process sweep mirroring llfuzz --diff-cute (the fuzz
    // smoke run does 500+; this keeps the unit suite fast).
    std::mt19937 rng(7);
    check::CuteGenOptions opt;
    opt.maxElements = 1 << 11;
    for (int iter = 0; iter < 40; ++iter) {
        check::CuteCase c = check::randomCuteCase(rng, opt);
        check::CuteOracleReport report = check::checkCuteCase(c);
        ASSERT_TRUE(report.ok())
            << c.summary << "\nsrc " << c.request.src.toString()
            << "\ndst " << c.request.dst.toString() << "\n"
            << report.toString();
    }
}

} // namespace
} // namespace cute
} // namespace ll
