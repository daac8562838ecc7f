/**
 * @file
 * plan_audit: execute and oracle-check every plan the compile path
 * ships.
 *
 * The layout engine and the service ship the plan
 * codegen::tryPlanConversion returns and execute nothing; verifying a
 * plan by running it is the check path's job. This program keeps that
 * verification whole. It compiles
 *   - the Figure 9 suite: every kernel, at every size, on every
 *     platform it runs on, with layout synthesis off and on;
 *   - the Table 5 mixed-precision sweep (every dtype pair at every
 *     base shape, GH200);
 *   - the committed corpus: each conversion case through
 *     service::serveConversion, each cute case's pow2 core through
 *     service::serveCuteConversion;
 * collects every distinct (src, dst, elemBytes, spec) conversion they
 * ship, and audits each one's shipped plan three ways:
 *   - codegen::smokeExecutePlan must run it cleanly;
 *   - check::checkPlan, the full oracle, must pass it;
 *   - a fresh codegen::tryPlanConversion must give the same plan
 *     (identical describePlan);
 * and each warp-shuffle plan a fourth way: its decoded table must equal
 * the per-element reference builder's (check::diffShuffleTable).
 * A failure is a failed check, never a new plan. A key that ships two
 * different plans, and an op the engine left unplanned, fail too.
 * Prints how many plans it audited, then a digest line: FNV-1a over
 * every "key => describePlan" line in key order, so two builds ship the
 * same plans exactly when their digest lines match; then the number of
 * distinct shipped plans of each kind, then how many shuffle plans it
 * compared with the reference. Exits 1 on any failure, or when it
 * audited no plan or compared no shuffle plan.
 *
 * Usage: plan_audit CORPUS_DIR
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/case_io.h"
#include "check/cute_check.h"
#include "check/oracle.h"
#include "check/shuffle_reference.h"
#include "codegen/conversion.h"
#include "engine/layout_engine.h"
#include "ir/function.h"
#include "kernels.h"
#include "service/conversion_service.h"
#include "service/cute_service.h"

namespace {

using namespace ll;

struct Shipped
{
    LinearLayout src, dst;
    int elemBytes = 0;
    sim::GpuSpec spec;
    std::shared_ptr<const codegen::ConversionPlan> plan;
    std::string origin; ///< where it first shipped, for failure messages
};

class Audit
{
  public:
    /** Record one shipped conversion; a key already seen must ship the
     *  same plan. */
    void
    ship(const LinearLayout &src, const LinearLayout &dst, int elemBytes,
         const sim::GpuSpec &spec,
         std::shared_ptr<const codegen::ConversionPlan> plan,
         const std::string &origin)
    {
        ++shipped_;
        const std::string key = src.toString() + "|" + dst.toString() +
                                "|" + std::to_string(elemBytes) + "|" +
                                spec.name;
        auto [it, fresh] = plans_.try_emplace(
            key, Shipped{src, dst, elemBytes, spec, plan, origin});
        if (!fresh && codegen::describePlan(*it->second.plan) !=
                          codegen::describePlan(*plan))
            fail(origin, "ships a different plan than " +
                             it->second.origin + " for the same key");
    }

    /** Record every live ConvertLayout of an engine-annotated function. */
    void
    shipFunction(const ir::Function &f, const sim::GpuSpec &spec,
                 const std::string &origin)
    {
        for (int i = 0; i < f.numOps(); ++i) {
            const ir::Op &o = f.op(i);
            if (o.erased || o.kind != ir::OpKind::ConvertLayout)
                continue;
            const std::string where = origin + " op " + std::to_string(i);
            if (!o.plan) {
                fail(where, "shipped " + o.tag + " without a plan");
                continue;
            }
            const auto &have = *f.value(o.operands[0]).layout;
            const auto &want = *f.value(o.results[0]).layout;
            // The engine's element width (planConversions).
            const int elemBytes = std::max(
                1, ir::bitWidth(f.value(o.results[0]).type.dtype) / 8);
            ship(have, want.transposeOuts(have.getOutDimNames()),
                 elemBytes, spec, o.plan, where);
        }
    }

    void
    fail(const std::string &where, const std::string &why)
    {
        ++failures_;
        std::cerr << "plan_audit: " << where << ": " << why << "\n";
    }

    /** Smoke run, oracle and a fresh re-plan on every distinct shipped
     *  plan. */
    void
    run()
    {
        for (const auto &[key, s] : plans_) {
            const std::string label =
                s.origin + " (" + codegen::toString(s.plan->kind) + ")";
            if (auto smoke = codegen::smokeExecutePlan(
                    *s.plan, s.src, s.dst, s.elemBytes, s.spec))
                fail(label, "smoke run failed: " + smoke->toString());
            auto fresh = codegen::tryPlanConversion(s.src, s.dst,
                                                    s.elemBytes, s.spec);
            if (!fresh.ok())
                fail(label,
                     "a fresh plan failed: " + fresh.diag().toString());
            else if (codegen::describePlan(*fresh) !=
                     codegen::describePlan(*s.plan))
                fail(label, "a fresh plan differs from the shipped one");
            auto report =
                check::checkPlan(*s.plan, s.src, s.dst, s.elemBytes, s.spec);
            if (!report.ok())
                fail(label, "check::checkPlan: " + report.toString());
            if (s.plan->shuffle) {
                const std::string diff = check::diffShuffleTable(
                    *s.plan->shuffle,
                    check::shuffleTable_reference(s.src, s.dst, s.elemBytes,
                                                  s.spec));
                if (!diff.empty())
                    fail(label, "the shuffle reference disagrees: " + diff);
                ++shufflesCompared_;
            }
            ++audited_;
        }
    }

    /** FNV-1a over the sorted "key => describePlan" lines. */
    uint64_t
    digest() const
    {
        uint64_t h = 1469598103934665603ull;
        for (const auto &[key, s] : plans_) {
            const std::string line =
                key + " => " + codegen::describePlan(*s.plan) + "\n";
            for (unsigned char c : line) {
                h ^= c;
                h *= 1099511628211ull;
            }
        }
        return h;
    }

    /** "no-op N, register-permute N, ...": distinct plans per kind, in
     *  ladder order, zeros included. */
    std::string
    kindCounts() const
    {
        std::map<codegen::ConversionKind, int64_t> counts;
        for (const auto &[key, s] : plans_)
            ++counts[s.plan->kind];
        constexpr int kLast =
            static_cast<int>(codegen::ConversionKind::SharedScalar);
        std::string out;
        for (int k = 0; k <= kLast; ++k) {
            const auto kind = static_cast<codegen::ConversionKind>(k);
            out += (k ? ", " : "") + codegen::toString(kind) + " " +
                   std::to_string(counts[kind]);
        }
        return out;
    }

    int64_t planCount() const { return static_cast<int64_t>(plans_.size()); }
    int64_t shipped() const { return shipped_; }
    int64_t audited() const { return audited_; }
    int64_t shufflesCompared() const { return shufflesCompared_; }
    int64_t failures() const { return failures_; }

  private:
    std::map<std::string, Shipped> plans_;
    int64_t shipped_ = 0;
    int64_t audited_ = 0;
    int64_t shufflesCompared_ = 0;
    int64_t failures_ = 0;
};

void
compileFig9(Audit &audit)
{
    for (const auto &spec : {sim::GpuSpec::rtx4090(), sim::GpuSpec::gh200(),
                             sim::GpuSpec::mi250()}) {
        for (const auto &k : kernels::allKernels()) {
            if (!kernels::runsOn(k, spec))
                continue;
            for (int32_t size : k.sizes) {
                for (bool synth : {false, true}) {
                    engine::EngineOptions options{spec, 4};
                    options.synthesizeLayouts = synth;
                    ir::Function f = k.build(size);
                    engine::LayoutEngine(options).run(f);
                    audit.shipFunction(
                        f, spec,
                        "fig9 " + k.name + "(" + std::to_string(size) +
                            ") on " + spec.name +
                            (synth ? " synth" : ""));
                }
            }
        }
    }
}

void
compileTab5(Audit &audit)
{
    const auto spec = sim::GpuSpec::gh200();
    for (auto [a, b] : kernels::mixedPrecisionPairs()) {
        for (const auto &shape : kernels::mixedPrecisionShapes()) {
            ir::Function f = kernels::mixedPrecisionDot(a, b, shape);
            engine::LayoutEngine({spec, 4}).run(f);
            audit.shipFunction(
                f, spec,
                "tab5 " + ir::toString(a) + "/" + ir::toString(b) + " " +
                    std::to_string(shape[0]) + "x" +
                    std::to_string(shape[1]) + "x" +
                    std::to_string(shape[2]));
        }
    }
}

void
compileCorpus(Audit &audit, const std::string &dir)
{
    std::vector<std::filesystem::path> paths;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    for (const auto &p : paths) {
        const std::string where = "corpus " + p.filename().string();
        if (p.extension() == ".txt") {
            const auto c = check::readCaseFile(p.string());
            const auto spec = c.spec();
            auto out = service::serveConversion(nullptr, c.src, c.dst,
                                                c.elemBytes, spec);
            if (!out.planned())
                audit.fail(where, "did not plan: " + out.error);
            else
                audit.ship(c.src, c.dst, c.elemBytes, spec, out.plan,
                           where);
        } else if (p.extension() == ".cute") {
            const auto c = check::readCuteCaseFile(p.string());
            const auto spec = c.spec();
            auto out = service::serveCuteConversion(nullptr, c.request, spec);
            if (!out.planned()) {
                audit.fail(where, "did not plan: " + out.error);
                continue;
            }
            const cute::CutePlan &plan = *out.plan;
            if (plan.hasCorePlan)
                audit.ship(plan.coreSrc, plan.coreDst, c.request.elemBytes,
                           spec,
                           std::make_shared<const codegen::ConversionPlan>(
                               plan.corePlan),
                           where + " core");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: plan_audit CORPUS_DIR\n";
        return 2;
    }
    Audit audit;
    try {
        compileFig9(audit);
        compileTab5(audit);
        compileCorpus(audit, argv[1]);
        audit.run();
    } catch (const std::exception &e) {
        std::cerr << "plan_audit: " << e.what() << "\n";
        return 1;
    }
    std::cout << "plan_audit: " << audit.audited()
              << " distinct plan(s) audited (smoke run + checkPlan + "
                 "re-plan) of "
              << audit.shipped() << " shipped conversion(s), "
              << audit.failures() << " failure(s)\n";
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(audit.digest()));
    std::cout << "plan_audit: digest " << digest << " over "
              << audit.planCount() << " plan(s)\n"
              << "plan_audit: plans per kind: " << audit.kindCounts()
              << "\n"
              << "plan_audit: " << audit.shufflesCompared()
              << " warp-shuffle plan(s) compared with the per-element "
                 "reference\n";
    if (audit.audited() == 0) {
        std::cerr << "plan_audit: audited nothing\n";
        return 1;
    }
    if (audit.shufflesCompared() == 0) {
        std::cerr << "plan_audit: compared no warp-shuffle plan\n";
        return 1;
    }
    return audit.failures() == 0 ? 0 : 1;
}
