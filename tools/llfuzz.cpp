/**
 * @file
 * llfuzz — differential fuzzer for layout-conversion lowering.
 *
 * Generates random conversion cases (src layout, dst layout, element
 * width, GPU spec), plans each with codegen::planConversion, executes
 * the plan, and checks it against the brute-force oracle: every element
 * must land in the register the destination layout demands, and every
 * shared-memory plan's measured bank-conflict wavefronts must equal the
 * totals it was priced with and, where Lemma 9.4 applies, the analytic
 * per-access count.
 *
 * On failure the case is shrunk to a minimal reproducer, printed both as
 * a ready-to-paste GoogleTest regression test and in the corpus text
 * format, and the process exits nonzero.
 *
 * Usage:
 *   llfuzz [--seed N] [--iters M] [--max-rank R] [--emit-corpus DIR]
 *          [--replay FILE] [--inject-bug] [--failpoint-rate P]
 *          [--diff-f2] [--verbose]
 *
 * --inject-bug runs the harness self-test: a swizzle-aliasing bug is
 * deliberately injected into a shared-memory plan; the oracle must catch
 * it and the shrinker must reduce it to a tensor of at most 32 elements.
 *
 * --failpoint-rate P activates each planner failpoint site independently
 * with probability P on every generated case, forcing random walks down
 * the fallback ladder; the oracle then checks that whatever rung the
 * planner lands on still routes every element correctly. The active set
 * is recorded in the case (and preserved through shrinking), so
 * reproducers replay the exact same injected failures.
 *
 * --failpoint-coverage runs coverage-guided fault injection over the
 * combined planner + service site pool: each iteration picks one site
 * with probability inversely proportional to its hit count and forces
 * it — a planner site for a whole random case, which must still pass
 * the oracle on whatever rung the planner falls to, a service site
 * one-shot against a deterministic service drill. The run fails unless
 * every pooled site was hit at least once within the --iters budget,
 * and when the pool is empty or no planner case ran.
 *
 * --diff-f2 fuzzes the word-parallel F2 core against its scalar
 * references via check::diffF2: any divergence fails the run and is
 * shrunk to a minimal reproducer, and a comparison family (matrix,
 * subspace, applyFlat, wavefront, tile, layout) that compared nothing
 * over the run fails it too.
 *
 * --diff-cute fuzzes the CuteLayout bridge and the non-pow2 admission
 * path. Each iteration (a) generates a random nested (shape,stride)
 * layout and checks the bridge differentially — a linearizable layout
 * must evaluate identically through LinearLayout::applyFlat and
 * round-trip fromLinear -> toLinear bit-for-bit, and every rejected
 * pow2-extent layout must carry an explicit XOR-linearity witness —
 * and (b) generates a random well-formed conversion request, plans it
 * with cute::tryPlanCuteConversion, executes it, and audits it against
 * the tagged-buffer oracle. Failures shrink to a minimal layout or a
 * minimal `.cute` reproducer.
 *
 * --diff-synth fuzzes the whole-kernel layout synthesis (src/synth):
 * each iteration builds a random but always-valid mini-IR graph and
 * runs the layout engine twice, synth-off and synth-on. Both runs must
 * complete, every surviving ConvertLayout in *both* functions must
 * oracle-verify end to end via checkConversionCase, and the
 * synthesized function's modeled kernel cost must not exceed the
 * default's (the never-worse guarantee). A divergence is shrunk by
 * regenerating the graph from the same seed with a decreasing op
 * budget and reporting the smallest budget that still fails.
 */

#include <cstring>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "check/case_io.h"
#include "check/cute_check.h"
#include "check/oracle.h"
#include "check/shrink.h"
#include "codegen/conversion.h"
#include "codegen/swizzle.h"
#include "cute/bridge.h"
#include "engine/cost_model.h"
#include "engine/layout_engine.h"
#include "service/admission.h"
#include "service/compile_service.h"
#include "service/singleflight.h"
#include "support/failpoint.h"

using namespace ll;

namespace {

struct Options
{
    uint32_t seed = 1;
    int iters = 500;
    int maxRank = 3;
    std::string emitCorpusDir;
    std::string replayFile;
    bool injectBug = false;
    double failpointRate = 0.0;
    bool failpointCoverage = false;
    bool diffF2 = false;
    bool diffCute = false;
    bool diffSynth = false;
    bool verbose = false;
};

void
usage()
{
    std::cerr
        << "usage: llfuzz [--seed N] [--iters M] [--max-rank R]\n"
           "              [--emit-corpus DIR] [--replay FILE]\n"
           "              [--inject-bug] [--failpoint-rate P]\n"
           "              [--failpoint-coverage]\n"
           "              [--diff-f2] [--diff-cute] [--diff-synth]\n"
           "              [--verbose]\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto needValue = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "llfuzz: " << name << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            const char *v = needValue("--seed");
            if (!v)
                return false;
            opt.seed = static_cast<uint32_t>(std::stoul(v));
        } else if (arg == "--iters") {
            const char *v = needValue("--iters");
            if (!v)
                return false;
            opt.iters = std::stoi(v);
        } else if (arg == "--max-rank") {
            const char *v = needValue("--max-rank");
            if (!v)
                return false;
            opt.maxRank = std::stoi(v);
        } else if (arg == "--emit-corpus") {
            const char *v = needValue("--emit-corpus");
            if (!v)
                return false;
            opt.emitCorpusDir = v;
        } else if (arg == "--replay") {
            const char *v = needValue("--replay");
            if (!v)
                return false;
            opt.replayFile = v;
        } else if (arg == "--inject-bug") {
            opt.injectBug = true;
        } else if (arg == "--failpoint-coverage") {
            opt.failpointCoverage = true;
        } else if (arg == "--diff-f2") {
            opt.diffF2 = true;
        } else if (arg == "--diff-cute") {
            opt.diffCute = true;
        } else if (arg == "--diff-synth") {
            opt.diffSynth = true;
        } else if (arg == "--failpoint-rate") {
            const char *v = needValue("--failpoint-rate");
            if (!v)
                return false;
            opt.failpointRate = std::stod(v);
            if (opt.failpointRate < 0.0 || opt.failpointRate > 1.0) {
                std::cerr << "llfuzz: --failpoint-rate must be in "
                             "[0, 1]\n";
                return false;
            }
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "llfuzz: unknown option " << arg << "\n";
            usage();
            return false;
        }
    }
    return true;
}

/** Print the failure, shrink it, print the reproducer; returns 1. */
int
reportFailure(const check::ConversionCase &c,
              const check::OracleReport &report,
              const check::CaseChecker &checker)
{
    std::cerr << "FAILURE: " << c.summary << "\n"
              << "  " << report.toString() << "\n"
              << "shrinking...\n";
    auto shrunk = check::shrinkCase(c, checker);
    std::cerr << "shrunk in " << shrunk.steps << " steps to "
              << check::caseElements(shrunk.minimized)
              << " elements\n\n";
    if (!shrunk.exceptionMessage.empty())
        std::cerr << "minimized case throws: " << shrunk.exceptionMessage
                  << "\n\n";
    else
        std::cerr << "minimized report: " << shrunk.report.toString()
                  << "\n\n";
    std::cerr << "--- regression test "
                 "------------------------------------\n"
              << check::emitRegressionTest(shrunk.minimized, "Shrunk")
              << "--- corpus case "
                 "----------------------------------------\n";
    check::writeCase(std::cerr, shrunk.minimized);
    return 1;
}

int
runInjectBugSelfTest(const Options &opt)
{
    // Find a case the planner lowers through shared memory, corrupt the
    // swizzle, and demand the harness catches and minimizes it.
    std::mt19937 rng(opt.seed);
    check::GenOptions gen;
    gen.maxRank = opt.maxRank;
    auto checker = [](const check::ConversionCase &cc) {
        return check::checkConversionCase(cc,
                                          check::injectSwizzleAliasBug);
    };
    for (int i = 0; i < 1000; ++i) {
        auto c = check::randomConversionCase(rng, gen);
        auto spec = c.spec();
        codegen::ConversionPlan plan;
        try {
            plan = codegen::planConversion(c.src, c.dst, c.elemBytes,
                                           spec);
        } catch (const std::exception &e) {
            std::cerr << "planner threw on " << c.summary << ": "
                      << e.what() << "\n";
            return 1;
        }
        if (plan.kind != codegen::ConversionKind::SharedMemory)
            continue;

        if (!check::injectSwizzleAliasBug(plan)) {
            std::cerr << "could not inject a bug into " << c.summary
                      << "\n";
            return 1;
        }
        auto report =
            check::checkPlan(plan, c.src, c.dst, c.elemBytes, spec);
        if (report.ok()) {
            std::cerr << "MISSED: injected swizzle bug not caught on "
                      << c.summary << "\n"
                      << "  " << report.toString() << "\n";
            return 1;
        }
        auto shrunk = check::shrinkCase(c, checker);
        int64_t elems = check::caseElements(shrunk.minimized);
        std::cout << "injected bug caught on " << c.summary << " ("
                  << report.mismatches << " mismatches), shrunk in "
                  << shrunk.steps << " steps to " << elems
                  << " elements\n";
        if (opt.verbose) {
            std::cout << check::emitRegressionTest(shrunk.minimized,
                                                   "Injected");
        }
        if (elems > 32) {
            std::cerr << "shrinker left " << elems
                      << " elements (want <= 32)\n";
            return 1;
        }
        std::cout << "inject-bug self-test passed\n";
        return 0;
    }
    std::cerr << "no shared-memory plan found to inject into\n";
    return 1;
}

/** Blocked-encoding shorthand for the deterministic coverage probes. */
LinearLayout
coverageBlocked(const triton::Shape &spt, const triton::Shape &tpw,
                const triton::Shape &wpc, const std::vector<int32_t> &order,
                const triton::Shape &shape)
{
    triton::BlockedEncoding enc;
    enc.sizePerThread = spt;
    enc.threadsPerWarp = tpw;
    enc.warpsPerCta = wpc;
    enc.order = order;
    return enc.toLinearLayout(shape);
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Force one svc.* site against a deterministic single-conversion
 * service drill, then rerun clean: the forced run must resolve through
 * the site's degraded-but-definite outcome (shed, failed leader,
 * deadline-exceeded) and the clean run must plan.
 */
bool
runServiceProbe(const std::string &site)
{
    auto spec = sim::GpuSpec::gh200();
    auto src = coverageBlocked({1, 4}, {8, 4}, {2, 2}, {1, 0}, {16, 64});
    auto dst = coverageBlocked({4, 1}, {2, 16}, {2, 2}, {1, 0}, {16, 64});

    if (site == "svc.admit") {
        service::AdmissionQueue queue(
            {2, service::AdmissionPolicy::ShedNewest});
        std::vector<service::ServerJob> shed;
        failpoint::activate(site, 1);
        const auto forced = queue.push(service::ServerJob{}, shed);
        failpoint::deactivate(site);
        if (forced != service::AdmissionQueue::PushResult::Shed) {
            std::cerr << "forced svc.admit did not shed\n";
            return false;
        }
        if (queue.stats().shedFailpoint != 1) {
            std::cerr << "svc.admit shed not attributed to the "
                         "failpoint\n";
            return false;
        }
        const auto clean = queue.push(service::ServerJob{}, shed);
        service::ServerJob out;
        if (clean != service::AdmissionQueue::PushResult::Admitted ||
            !queue.pop(out)) {
            std::cerr << "clean admission probe failed\n";
            return false;
        }
        queue.close();
        return true;
    }

    if (site == "svc.singleflight.leader") {
        service::PlanCache cache{service::PlanCache::Config{}};
        service::Singleflight flights;
        failpoint::activate(site, 1);
        const auto forced = service::serveConversionCoalesced(
            &cache, &flights, src, dst, 2, spec);
        failpoint::deactivate(site);
        if (forced.outcome.planned() || forced.outcome.error.empty()) {
            std::cerr << "forced svc.singleflight.leader did not fail "
                         "the leader\n";
            return false;
        }
        if (cache.size() != 0) {
            std::cerr << "leader failpoint failure was cached\n";
            return false;
        }
        const auto clean = service::serveConversionCoalesced(
            &cache, &flights, src, dst, 2, spec);
        if (!clean.outcome.planned()) {
            std::cerr << "clean singleflight probe failed: "
                      << clean.outcome.error << "\n";
            return false;
        }
        return true;
    }

    // Server-loop sites: a one-arrival serve() through CompileService.
    auto conv = std::make_shared<service::ConversionRequest>();
    conv->src = src;
    conv->dst = dst;
    conv->elemBytes = 2;
    conv->spec = spec;
    service::CompileRequest req;
    req.name = "svc.probe";
    req.conversion = std::move(conv);
    const std::vector<service::CompileRequest> stream{req};

    service::PlanCache cache{service::PlanCache::Config{}};
    service::CompileService::Options so;
    so.threads = 1;
    so.cache = &cache;
    service::CompileService svc{so};
    service::CompileService::ServerConfig cfg;
    cfg.ratePerSec = 1e5;
    cfg.durationSec = 0.01;
    cfg.maxRequests = 1;
    cfg.seed = 7;

    if (site == "svc.queue.timeout") {
        failpoint::activate(site, 1);
        const auto forced = svc.serve(stream, cfg);
        failpoint::deactivate(site);
        if (forced.deadlineExceeded != 1) {
            std::cerr << "forced svc.queue.timeout did not expire the "
                         "queued request\n";
            return false;
        }
        const auto clean = svc.serve(stream, cfg);
        if (clean.planned != 1) {
            std::cerr << "clean queue-timeout probe failed\n";
            return false;
        }
        return true;
    }

    std::cerr << "no probe for service site " << site << "\n";
    return false;
}

int
runFailpointCoverage(const Options &opt)
{
    failpoint::clearAll();
    std::mt19937 rng(opt.seed);
    check::GenOptions gen;
    gen.maxRank = opt.maxRank;

    auto pool = codegen::plannerFailpointSites();
    auto svcSites = service::serviceFailpointSites();
    pool.insert(pool.end(), svcSites.begin(), svcSites.end());
    if (pool.empty()) {
        std::cerr << "llfuzz: failpoint coverage has no site to force\n";
        return 1;
    }

    int64_t plannerCases = 0;
    for (int iter = 0; iter < opt.iters; ++iter) {
        // Coverage guidance: select inversely to how often each site's
        // guard has been evaluated so far.
        std::vector<double> weights;
        weights.reserve(pool.size());
        for (const auto &s : pool)
            weights.push_back(
                1.0 / (1.0 + static_cast<double>(failpoint::hitCount(s))));
        std::discrete_distribution<size_t> pick(weights.begin(),
                                                weights.end());
        const std::string site = pool[pick(rng)];
        if (opt.verbose)
            std::cout << "[" << iter << "] forcing " << site << "\n";

        if (startsWith(site, "svc.")) {
            if (!runServiceProbe(site))
                return 1;
            continue;
        }
        auto c = check::randomConversionCase(rng, gen);
        c.failpoints.push_back(site);
        c.summary += " +failpoints{" + site + "}";
        check::OracleReport report;
        try {
            report = check::checkConversionCase(c);
        } catch (const std::exception &e) {
            std::cerr << "EXCEPTION on " << c.summary << ": " << e.what()
                      << "\n";
            return 1;
        }
        if (!report.ok()) {
            auto checker = [](const check::ConversionCase &cc) {
                return check::checkConversionCase(cc);
            };
            return reportFailure(c, report, checker);
        }
        ++plannerCases;
    }

    std::vector<std::string> missed;
    for (const auto &s : pool) {
        if (failpoint::hitCount(s) == 0)
            missed.push_back(s);
    }
    if (!missed.empty()) {
        std::cerr << "llfuzz: " << missed.size()
                  << " failpoint sites never hit within " << opt.iters
                  << " iterations:\n";
        for (const auto &s : missed)
            std::cerr << "  " << s << "\n";
        return 1;
    }
    if (plannerCases == 0) {
        std::cerr << "llfuzz: failpoint coverage ran no planner case "
                     "within "
                  << opt.iters << " iterations\n";
        return 1;
    }
    std::cout << "llfuzz: failpoint coverage " << pool.size() << "/"
              << pool.size() << " sites hit over " << opt.iters
              << " iterations, " << plannerCases
              << " planner cases oracle-clean (seed " << opt.seed
              << ")\n";
    return 0;
}

} // namespace

/**
 * --diff-f2: differential fuzzing of the word-parallel F2 core. Every
 * random case goes through check::diffF2, which calls each fast F2
 * primitive and its scalar `*_reference` twin directly on inputs taken
 * from the case; a divergence fails and is shrunk with the standard
 * case shrinker. The run also fails when a comparison family compared
 * nothing, so a generator change cannot silently empty the check.
 */
int
runDiffF2(const Options &opt)
{
    const check::CaseChecker diffChecker = check::diffF2;
    std::mt19937 rng(opt.seed);
    check::GenOptions gen;
    gen.maxRank = opt.maxRank;
    std::map<std::string, int> kindCounts;
    check::OracleReport::F2Comparisons total;
    for (int iter = 0; iter < opt.iters; ++iter) {
        auto c = check::randomConversionCase(rng, gen);
        check::OracleReport report;
        try {
            report = diffChecker(c);
        } catch (const std::exception &e) {
            std::cerr << "EXCEPTION on " << c.summary << ": " << e.what()
                      << "\n";
            return reportFailure(c, report, diffChecker);
        }
        ++kindCounts[codegen::toString(report.kind)];
        if (opt.verbose) {
            std::cout << "[" << iter << "] " << c.summary << ": "
                      << report.toString() << "\n";
        }
        if (!report.ok())
            return reportFailure(c, report, diffChecker);
        total += report.f2Compared;
    }

    std::cout << "llfuzz --diff-f2: " << opt.iters
              << " cases, fast F2 paths equal their references (seed "
              << opt.seed << ")\n";
    for (const auto &[kind, count] : kindCounts)
        std::cout << "  " << kind << ": " << count << "\n";
    bool vacuous = false;
    for (const auto &[family, count] :
         {std::pair<const char *, int64_t>{"matrix", total.matrix},
          {"subspace", total.subspace},
          {"applyFlat", total.applyFlat},
          {"wavefront", total.wavefront},
          {"tile", total.tile},
          {"layout", total.layout}}) {
        std::cout << "  compared " << family << ": " << count << "\n";
        if (count == 0) {
            std::cerr << "llfuzz --diff-f2: family " << family
                      << " compared nothing\n";
            vacuous = true;
        }
    }
    return vacuous ? 1 : 0;
}

/**
 * --diff-cute: differential fuzzing of the CuteLayout bridge and the
 * non-pow2 admission pass. Bridge-level divergences shrink with the
 * layout shrinker; admission-level failures shrink to a minimal
 * `.cute` reproducer printed in the corpus format.
 */
int
runDiffCute(const Options &opt)
{
    // One string describing what (if anything) the bridge gets wrong
    // on this layout; empty = clean. Doubles as the shrink predicate.
    auto bridgeDivergence =
        [](const cute::CuteLayout &l) -> std::string {
        bool pow2 = true;
        for (int64_t e : l.flatShape())
            pow2 = pow2 && (e & (e - 1)) == 0;
        if (cute::isLinearizable(l)) {
            auto lin = cute::toLinear(l);
            if (!lin.ok()) {
                return "accepted by isLinearizable but toLinear "
                       "failed: " +
                       lin.diag().toString();
            }
            for (int64_t i = 0; i < l.size(); ++i) {
                if (static_cast<uint64_t>(l(i)) !=
                    lin->applyFlat(static_cast<uint64_t>(i))) {
                    return "integer vs F2 evaluation diverged at " +
                           std::to_string(i);
                }
            }
            auto back = cute::fromLinear(*lin);
            if (!back.ok())
                return "bridged layout not delinearizable: " +
                       back.diag().toString();
            auto again = cute::toLinear(*back);
            if (!again.ok() || !(*again == *lin))
                return "fromLinear -> toLinear not bit-identical";
        } else if (pow2) {
            auto [x, y] = cute::linearityWitness(l);
            if (x < 0 || y < 0)
                return "rejected pow2-extent layout has no witness";
            if (x >= l.size() || y >= l.size())
                return "witness indices out of range";
            if (l(x ^ y) == (l(x) ^ l(y)))
                return "witness does not witness: L(x^y) == L(x)^L(y)";
        } else {
            auto [x, y] = cute::linearityWitness(l);
            if (x != -1 || y != -1)
                return "non-pow2 layout fabricated an XOR witness";
            if (cute::toLinear(l).ok())
                return "toLinear accepted a non-pow2 layout";
        }
        return "";
    };

    std::mt19937 rng(opt.seed);
    check::CuteGenOptions gen;
    int linearizable = 0, witnessed = 0, decomposed = 0, bridged = 0;
    for (int iter = 0; iter < opt.iters; ++iter) {
        // (a) Bridge level.
        cute::CuteLayout layout = check::randomCuteLayout(rng, gen);
        std::string diverged = bridgeDivergence(layout);
        if (!diverged.empty()) {
            std::cerr << "BRIDGE DIVERGENCE on " << layout.toString()
                      << ": " << diverged << "\n";
            cute::CuteLayout minimal = check::shrinkCuteLayout(
                layout, [&](const cute::CuteLayout &cand) {
                    return !bridgeDivergence(cand).empty();
                });
            std::cerr << "shrunk reproducer: " << minimal.toString()
                      << "\n  " << bridgeDivergence(minimal) << "\n";
            return 1;
        }
        if (cute::isLinearizable(layout))
            ++linearizable;
        else if (cute::linearityWitness(layout).first >= 0)
            ++witnessed;

        // (b) Admission level.
        check::CuteCase c = check::randomCuteCase(rng, gen);
        check::CuteOracleReport report;
        std::string exception;
        try {
            report = check::checkCuteCase(c);
        } catch (const std::exception &e) {
            exception = e.what();
        }
        if (exception.empty() && report.ok()) {
            if (report.remainderElems > 0)
                ++decomposed;
            else
                ++bridged;
            if (opt.verbose) {
                std::cout << "[" << iter << "] " << c.summary << ": "
                          << report.toString() << "\n";
            }
            continue;
        }
        std::cerr << "ADMISSION FAILURE on " << c.summary << "\n  src "
                  << c.request.src.toString() << "\n  dst "
                  << c.request.dst.toString() << "\n  "
                  << (exception.empty() ? report.toString()
                                        : "exception: " + exception)
                  << "\n";
        check::CuteShrinkResult shrunk = check::shrinkCuteCase(
            c, [](const check::CuteCase &cand) {
                return check::checkCuteCase(cand);
            });
        std::cerr << "shrunk reproducer (" << shrunk.steps
                  << " steps):\n";
        check::writeCuteCase(std::cerr, shrunk.minimized);
        if (!shrunk.exceptionMessage.empty())
            std::cerr << "  exception: " << shrunk.exceptionMessage
                      << "\n";
        else
            std::cerr << "  " << shrunk.report.toString() << "\n";
        return 1;
    }

    std::cout << "llfuzz --diff-cute: " << opt.iters
              << " layouts bridged and cases admitted, no divergence "
                 "(seed "
              << opt.seed << ")\n"
              << "  bridge: " << linearizable << " linearizable, "
              << witnessed << " rejected-with-witness\n"
              << "  admission: " << decomposed << " decomposed, "
              << bridged << " pure-bridge\n";
    return 0;
}

/**
 * A random mini-IR graph that is valid by construction: every action
 * either adds a value of the pool shape or wires existing pool values
 * through an op that preserves it, so Function's builder checks can
 * never fire. The shapes are small pow2 rank-2 tensors so every
 * generated dot is MMA-eligible and engine runs stay fast. The same
 * (seed, opBudget) pair always regenerates the same graph — the shrink
 * loop relies on that.
 */
ir::Function
randomSynthGraph(uint32_t seed, int opBudget)
{
    std::mt19937 rng(seed);
    ir::Function f("synth_fuzz_s" + std::to_string(seed) + "_b" +
                   std::to_string(opBudget));
    const ir::DType dtypes[] = {ir::DType::F16, ir::DType::F32,
                                ir::DType::BF16, ir::DType::I32,
                                ir::DType::I8};
    auto pickDtype = [&] { return dtypes[rng() % 5]; };
    const int32_t m = 16 << (rng() % 2);
    const int32_t n = 32 << (rng() % 2);
    const ir::Shape shape{m, n};
    // Pool of same-shape values any later action may consume.
    std::vector<int> pool;
    pool.push_back(f.load({pickDtype(), shape}, "seed_a"));
    pool.push_back(f.load({pickDtype(), shape}, "seed_b"));
    auto pick = [&] { return pool[rng() % pool.size()]; };
    for (int i = 0; i < opBudget; ++i) {
        switch (rng() % 6) {
          case 0:
            pool.push_back(f.load({pickDtype(), shape}, "ld"));
            break;
          case 1: {
            int a = pick();
            int b = pick();
            pool.push_back(f.elementwise({a, b}, pickDtype(), "mix"));
            break;
          }
          case 2: {
            // Embedding-style gather with a fresh index tensor.
            int src = pick();
            int idx = f.load({ir::DType::I32, shape}, "idx");
            pool.push_back(f.gather(src, idx, rng() % 2 ? 1 : 0));
            break;
          }
          case 3: {
            // Tensor-core dot on fresh operands; the acc has the pool
            // shape, so it re-enters the pool and later actions can
            // mix a fixed MMA layout into carrier chains.
            int a = f.load({ir::DType::F16, {m, 32}}, "dot_a");
            int b = f.load({ir::DType::F16, {32, n}}, "dot_b");
            pool.push_back(f.dot(a, b, ir::DType::F32));
            break;
          }
          case 4:
            pool.push_back(f.scan(pick(), 1));
            break;
          case 5: {
            // Softmax-style reduce -> expand -> broadcast -> combine:
            // the shape transfers break carrier chains mid-graph.
            int v = pick();
            int r = f.reduce(v, 1, "max");
            int b = f.broadcast(f.expandDims(r, 1), shape);
            pool.push_back(
                f.elementwise({v, b}, f.value(v).type.dtype, "sub"));
            break;
          }
        }
    }
    f.store(pool.back(), "out");
    f.store(pick(), "out2");
    return f;
}

/**
 * --diff-synth: differential fuzzing of whole-kernel layout synthesis.
 * Per graph the layout engine runs synth-off and synth-on; both runs
 * must complete, every surviving ConvertLayout in each annotated
 * function must oracle-verify end to end (checkConversionCase), and the
 * synthesized run's modeled cost must not exceed the default's.
 */
int
runDiffSynth(const Options &opt)
{
    struct Audit
    {
        bool ok = true;
        std::string error;
        double cycles = 0.0;
        int converts = 0;
        int choseSynth = 0;
    };
    // Run the engine on a copy and oracle-audit every conversion it
    // left in the function. `specName` picks the platform model.
    auto audit = [](ir::Function f, const std::string &specName,
                    bool synth) -> Audit {
        Audit a;
        engine::EngineOptions eo;
        eo.spec = check::specByName(specName);
        eo.synthesizeLayouts = synth;
        engine::LayoutEngine eng(eo);
        const char *mode = synth ? "synth-on" : "synth-off";
        try {
            engine::EngineStats stats = eng.run(f);
            a.choseSynth = stats.synthChoseSynthesized;
        } catch (const std::exception &e) {
            a.ok = false;
            a.error = std::string(mode) + " engine threw: " + e.what();
            return a;
        }
        for (int i = 0; i < f.numOps(); ++i) {
            const ir::Op &o = f.op(i);
            if (o.erased || o.kind != ir::OpKind::ConvertLayout)
                continue;
            const auto &have = f.value(o.operands[0]).layout;
            const auto &want = f.value(o.results[0]).layout;
            if (!have || !want) {
                a.ok = false;
                a.error = std::string(mode) + " op " +
                          std::to_string(i) +
                          ": conversion endpoint lacks a layout";
                return a;
            }
            check::ConversionCase cc;
            cc.src = *have;
            cc.elemBytes =
                ir::byteWidth(f.value(o.results[0]).type.dtype);
            cc.specName = specName;
            cc.summary = f.name() + " op " + std::to_string(i);
            std::string verdict;
            try {
                cc.dst = want->transposeOuts(have->getOutDimNames());
                check::OracleReport report = check::checkConversionCase(cc);
                if (!report.ok())
                    verdict = report.detail;
            } catch (const std::exception &e) {
                verdict = std::string("exception: ") + e.what();
            }
            if (!verdict.empty()) {
                a.ok = false;
                a.error = std::string(mode) + " op " +
                          std::to_string(i) +
                          " failed the oracle: " + verdict;
                return a;
            }
            ++a.converts;
        }
        a.cycles = engine::estimateKernelCost(f, eo.spec).cycles;
        return a;
    };

    int64_t convertsAudited = 0;
    int graphsChoseSynth = 0;
    // Non-empty string = what diverged on this (seed, budget, spec).
    // Doubles as the shrink predicate.
    auto divergence = [&](uint32_t seed, int budget,
                          const std::string &specName) -> std::string {
        ir::Function base = randomSynthGraph(seed, budget);
        Audit off = audit(base, specName, false);
        if (!off.ok)
            return off.error;
        Audit on = audit(base, specName, true);
        if (!on.ok)
            return on.error;
        if (on.cycles > off.cycles + 1e-6) {
            return "synthesis regressed modeled cycles: off=" +
                   std::to_string(off.cycles) +
                   " on=" + std::to_string(on.cycles);
        }
        convertsAudited += off.converts + on.converts;
        if (on.choseSynth > 0)
            ++graphsChoseSynth;
        return "";
    };

    const std::string specNames[] = {"gh200", "rtx4090", "mi250"};
    for (int iter = 0; iter < opt.iters; ++iter) {
        uint32_t seed = opt.seed + static_cast<uint32_t>(iter);
        const int budget = 3 + static_cast<int>(seed % 6);
        const std::string &specName = specNames[seed % 3];
        std::string msg = divergence(seed, budget, specName);
        if (opt.verbose) {
            std::cout << "[" << iter << "] seed " << seed << " budget "
                      << budget << " " << specName << ": "
                      << (msg.empty() ? "clean" : msg) << "\n";
        }
        if (msg.empty())
            continue;
        // Shrink: same seed, smallest op budget that still fails.
        int minBudget = budget;
        std::string minMsg = msg;
        for (int b = 1; b < budget; ++b) {
            std::string m = divergence(seed, b, specName);
            if (!m.empty()) {
                minBudget = b;
                minMsg = m;
                break;
            }
        }
        std::cerr << "SYNTH DIVERGENCE (seed " << seed << ", op budget "
                  << minBudget << ", " << specName << "): " << minMsg
                  << "\n"
                  << randomSynthGraph(seed, minBudget).print()
                  << "replay: llfuzz --diff-synth --seed " << seed
                  << " --iters 1\n";
        return 1;
    }

    std::cout << "llfuzz --diff-synth: " << opt.iters
              << " graphs run synth-off and synth-on, no divergence "
                 "(seed "
              << opt.seed << ")\n"
              << "  conversions oracle-audited: " << convertsAudited
              << "\n  graphs where synthesis chose a non-default "
                 "assignment: "
              << graphsChoseSynth << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    auto checker = [](const check::ConversionCase &cc) {
        return check::checkConversionCase(cc);
    };

    if (opt.injectBug)
        return runInjectBugSelfTest(opt);

    if (opt.failpointCoverage)
        return runFailpointCoverage(opt);

    if (opt.diffF2)
        return runDiffF2(opt);

    if (opt.diffCute)
        return runDiffCute(opt);

    if (opt.diffSynth)
        return runDiffSynth(opt);

    if (!opt.replayFile.empty()) {
        check::ConversionCase c;
        try {
            c = check::readCaseFile(opt.replayFile);
        } catch (const std::exception &e) {
            std::cerr << "llfuzz: " << e.what() << "\n";
            return 2;
        }
        const std::string label =
            c.summary.empty() ? opt.replayFile : c.summary;
        check::OracleReport report;
        try {
            report = checker(c);
        } catch (const std::exception &e) {
            // A case whose failpoints knock out every rung cannot plan.
            std::cerr << "llfuzz: " << label << ": " << e.what() << "\n";
            return 1;
        }
        std::cout << label << ": " << report.toString() << "\n";
        if (!report.ok())
            return reportFailure(c, report, checker);
        return 0;
    }

    std::mt19937 rng(opt.seed);
    check::GenOptions gen;
    gen.maxRank = opt.maxRank;
    const auto failpointSites = codegen::plannerFailpointSites();
    std::bernoulli_distribution failpointCoin(opt.failpointRate);
    std::map<std::string, int> kindCounts;
    int64_t casesWithFailpoints = 0;
    int64_t corpusWritten = 0;
    for (int iter = 0; iter < opt.iters; ++iter) {
        auto c = check::randomConversionCase(rng, gen);
        if (opt.failpointRate > 0.0) {
            for (const auto &site : failpointSites) {
                if (failpointCoin(rng))
                    c.failpoints.push_back(site);
            }
            if (!c.failpoints.empty()) {
                ++casesWithFailpoints;
                std::ostringstream fs;
                fs << c.summary << " +failpoints{";
                for (size_t s = 0; s < c.failpoints.size(); ++s)
                    fs << (s ? "," : "") << c.failpoints[s];
                fs << "}";
                c.summary = fs.str();
            }
        }
        check::OracleReport report;
        try {
            report = checker(c);
        } catch (const std::exception &e) {
            std::cerr << "EXCEPTION on " << c.summary << ": " << e.what()
                      << "\n";
            return reportFailure(c, report, checker);
        }
        ++kindCounts[codegen::toString(report.kind)];
        if (opt.verbose) {
            std::cout << "[" << iter << "] " << c.summary << ": "
                      << report.toString() << "\n";
        }
        if (!report.ok())
            return reportFailure(c, report, checker);
        if (!opt.emitCorpusDir.empty()) {
            std::ostringstream name;
            name << opt.emitCorpusDir << "/seed" << opt.seed << "_case"
                 << iter << ".txt";
            check::writeCaseFile(name.str(), c);
            ++corpusWritten;
        }
    }

    std::cout << "llfuzz: " << opt.iters
              << " cases checked, 0 failures (seed " << opt.seed
              << ")\n";
    for (const auto &[kind, count] : kindCounts)
        std::cout << "  " << kind << ": " << count << "\n";
    if (opt.failpointRate > 0.0) {
        std::cout << "  cases with injected failpoints: "
                  << casesWithFailpoints << " (rate "
                  << opt.failpointRate << ")\n";
    }
    if (corpusWritten)
        std::cout << "  corpus files written: " << corpusWritten << "\n";
    return 0;
}
