/**
 * @file
 * The calibration ledger's determinism and attribution contracts
 * (DESIGN.md §16), enforced over the committed seed corpus:
 *
 *  - replaying the corpus single-threaded and across 8 threads yields
 *    byte-identical sorted JSONL exports (records are pure functions of
 *    the conversion inputs — no timestamps, tids or sequence numbers);
 *  - exactly one terminal record per planned conversion;
 *  - repeat plannings of the same key are deduplicated, contributing
 *    no duplicate records.
 *
 * This test runs under the tsan preset like every other ctest entry,
 * which is what makes the 8-thread half a real data-race check rather
 * than a coin flip.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/case_io.h"
#include "codegen/conversion.h"
#include "support/ledger.h"

namespace ll {
namespace {

std::vector<check::ConversionCase>
loadCorpus()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(LL_CORPUS_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".txt")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    std::vector<check::ConversionCase> cases;
    for (const auto &path : files)
        cases.push_back(check::readCaseFile(path));
    return cases;
}

void
planCase(const check::ConversionCase &c)
{
    auto spec = c.spec();
    auto plan =
        codegen::tryPlanConversion(c.src, c.dst, c.elemBytes, spec);
    ASSERT_TRUE(plan.ok()) << plan.diag().toString();
}

/** Replay the whole corpus into a fresh ledger; returns the export. */
std::vector<std::string>
replayCorpus(const std::vector<check::ConversionCase> &cases,
             int numThreads)
{
    auto &ledger = ledger::Ledger::instance();
    ledger.clear();
    ledger.setEnabled(true);
    if (numThreads <= 1) {
        for (const auto &c : cases)
            planCase(c);
    } else {
        std::vector<std::thread> threads;
        for (int t = 0; t < numThreads; ++t) {
            threads.emplace_back([&cases, t, numThreads] {
                for (size_t i = static_cast<size_t>(t);
                     i < cases.size();
                     i += static_cast<size_t>(numThreads))
                    planCase(cases[i]);
            });
        }
        for (auto &th : threads)
            th.join();
    }
    ledger.setEnabled(false);
    return ledger.sortedLines();
}

class LedgerTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ledger::Ledger::instance().setEnabled(false);
        ledger::Ledger::instance().clear();
    }
};

TEST_F(LedgerTest, SingleVsEightThreadsByteIdentical)
{
    auto cases = loadCorpus();
    ASSERT_FALSE(cases.empty());
    auto serial = replayCorpus(cases, 1);
    ASSERT_FALSE(serial.empty());
    auto threaded = replayCorpus(cases, 8);
    EXPECT_EQ(serial, threaded)
        << "sorted JSONL export depends on thread interleaving";
}

TEST_F(LedgerTest, ExactlyOneTerminalRecordPerConversion)
{
    auto cases = loadCorpus();
    auto lines = replayCorpus(cases, 1);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(ledger::Ledger::instance().conversionCount(),
              static_cast<int64_t>(cases.size()));

    // Records of one conversion share the (src, dst, spec, elem,
    // start_rung) prefix — the serialized field order is fixed.
    std::vector<std::pair<std::string, int>> groups;
    for (const auto &line : lines) {
        const size_t cut = line.find(",\"rung\":");
        ASSERT_NE(cut, std::string::npos) << line;
        const std::string key = line.substr(0, cut);
        const bool terminal =
            line.find("\"terminal\":true") != std::string::npos;
        if (groups.empty() || groups.back().first != key)
            groups.emplace_back(key, 0);
        groups.back().second += terminal ? 1 : 0;
    }
    EXPECT_EQ(groups.size(), cases.size());
    for (const auto &[key, terminals] : groups)
        EXPECT_EQ(terminals, 1) << key;
}

TEST_F(LedgerTest, RepeatPlanningDeduplicated)
{
    auto cases = loadCorpus();
    ASSERT_FALSE(cases.empty());
    auto &ledger = ledger::Ledger::instance();
    ledger.clear();
    ledger.setEnabled(true);
    planCase(cases.front());
    const int64_t afterFirst = ledger.recordCount();
    ASSERT_GT(afterFirst, 0);
    planCase(cases.front());
    EXPECT_EQ(ledger.recordCount(), afterFirst)
        << "repeat planning of the same key must add no records";
    EXPECT_EQ(ledger.conversionCount(), 1);
}

TEST_F(LedgerTest, DisabledPlanningRecordsNothing)
{
    auto cases = loadCorpus();
    ASSERT_FALSE(cases.empty());
    auto &ledger = ledger::Ledger::instance();
    ledger.clear();
    ASSERT_FALSE(ledger::enabled());
    planCase(cases.front());
    EXPECT_EQ(ledger.recordCount(), 0);
    EXPECT_EQ(ledger.conversionCount(), 0);
}

} // namespace
} // namespace ll
