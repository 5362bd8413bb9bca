/**
 * @file
 * Tests of the benchmark's own arithmetic on hand-built inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>

#include "metrics.hh"

using namespace grpbench;

namespace
{

grp::RunResult
run(const std::string &workload, grp::PrefetchScheme scheme, double ipc,
    uint64_t traffic,
    grp::Perfection perfection = grp::Perfection::None)
{
    grp::RunResult r;
    r.workload = workload;
    r.scheme = scheme;
    r.perfection = perfection;
    r.ipc = ipc;
    r.trafficBytes = traffic;
    return r;
}

Summaries
paperValues()
{
    Summaries sims;
    for (const PaperRow &row : table1())
        sims[row.scheme] = {row.speedup, row.traffic, row.gapPct};
    return sims;
}

} // namespace

TEST(TailPercentile, NeedsMoreThanTenSamples)
{
    EXPECT_FALSE(tailPercentile(std::vector<double>(10, 1.0)).valid);
    const TailPercentile t = tailPercentile({5, 4, 3, 2, 1, 6, 7, 8, 9,
                                             10, 11});
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.value, 1.0);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0 / 11.0);
    EXPECT_EQ(t.samples, 11u);
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    const TailPercentile t = tailPercentile(samples);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    const auto beyond = std::count_if(samples.begin(), samples.end(),
                                      [&](double v) { return v > t.value; });
    EXPECT_EQ(beyond, 10);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SimMinst, ExcludesSetup)
{
    EXPECT_DOUBLE_EQ(simMinstPerSec(10'000'000, 3.0, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(simMinstPerSec(10'000'000, 2.0, 0.0), 5.0);
    EXPECT_EQ(simMinstPerSec(10'000'000, 1.0, 1.0), 0.0);
}

TEST(PaperError, Table1MatchesTab01Summary)
{
    std::ifstream in(GRPBENCH_TAB01_SOURCE);
    ASSERT_TRUE(in) << GRPBENCH_TAB01_SOURCE;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::regex row(R"(PrefetchScheme::(\w+),\s*([0-9.]+),\s*)"
                         R"(([0-9.]+),\s*([0-9.]+)\})");
    std::map<std::string, std::vector<double>> rows;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), row);
         it != std::sregex_iterator(); ++it) {
        const std::map<std::string, std::string> names = {
            {"Stride", "stride"}, {"Srp", "srp"}, {"GrpFix", "grp-fix"},
            {"GrpVar", "grp-var"}, {"None", "none"}};
        rows[names.at((*it)[1])] = {std::stod((*it)[2]),
                                    std::stod((*it)[3]),
                                    std::stod((*it)[4])};
    }
    ASSERT_EQ(rows.size(), 5u);
    for (const PaperRow &r : table1()) {
        ASSERT_TRUE(rows.count(r.scheme)) << r.scheme;
        EXPECT_EQ(rows[r.scheme][0], r.speedup) << r.scheme;
        EXPECT_EQ(rows[r.scheme][1], r.traffic) << r.scheme;
        EXPECT_EQ(rows[r.scheme][2], r.gapPct) << r.scheme;
    }
}

TEST(PaperError, MeanAbsoluteDistanceInPoints)
{
    Summaries sims = paperValues();
    PaperError err = paperError(sims);
    EXPECT_EQ(err.schemes, 4u);
    EXPECT_NEAR(err.speedupPp, 0.0, 1e-12);
    EXPECT_NEAR(err.trafficPp, 0.0, 1e-12);
    EXPECT_NEAR(err.gapPp, 0.0, 1e-12);

    sims["stride"].speedup += 0.10; // +10 pp
    sims["srp"].speedup -= 0.02;    // -2 pp
    sims["grp-var"].traffic += 0.4; // +40 pp
    sims["grp-fix"].gapPct -= 8.0;  // -8 pp
    sims["none"] = {1.0, 1.0, 33.0}; // not a Table 1 prefetcher row
    err = paperError(sims);
    EXPECT_EQ(err.schemes, 4u);
    EXPECT_NEAR(err.speedupPp, 3.0, 1e-9);
    EXPECT_NEAR(err.trafficPp, 10.0, 1e-9);
    EXPECT_NEAR(err.gapPp, 2.0, 1e-9);

    Summaries subset = {{"srp", {1.326, 2.80, 18.75}},
                        {"grp-var", {1.212, 1.43, 19.69}}};
    err = paperError(subset);
    EXPECT_EQ(err.schemes, 2u);
    EXPECT_NEAR(err.speedupPp, 5.0, 1e-9);
    EXPECT_NEAR(err.trafficPp, 10.0, 1e-9);
}

TEST(Summarize, GeomeansPerInstance)
{
    using grp::Perfection;
    using grp::PrefetchScheme;
    const std::vector<grp::RunResult> runs = {
        run("a", PrefetchScheme::None, 1.0, 100),
        run("a", PrefetchScheme::GrpVar, 2.0, 200),
        run("a", PrefetchScheme::None, 4.0, 0, Perfection::PerfectL2),
        run("b", PrefetchScheme::None, 1.0, 100),
        run("b", PrefetchScheme::GrpVar, 1.0, 100),
        run("b", PrefetchScheme::None, 1.0, 0, Perfection::PerfectL2),
        // Outside the suite: ignored.
        run("c", PrefetchScheme::None, 1.0, 100),
        run("c", PrefetchScheme::GrpVar, 9.0, 900),
        run("c", PrefetchScheme::None, 9.0, 0, Perfection::PerfectL2),
    };
    const std::vector<std::string> instances = {"a", "a", "a", "b", "b",
                                                "b", "c", "c", "c"};
    const Summaries sims = summarize(runs, instances, {"a", "b"});
    ASSERT_EQ(sims.size(), 1u);
    const SchemeSummary &s = sims.at("grp-var");
    EXPECT_NEAR(s.speedup, std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(s.traffic, std::sqrt(2.0), 1e-12);
    // IPC over perfect: 0.5 and 1.0 -> geomean sqrt(0.5).
    EXPECT_NEAR(s.gapPct, 100.0 * (1.0 - std::sqrt(0.5)), 1e-9);

    // Two seeds of one workload are two instances.
    const std::vector<std::string> seeds = {"a/s1", "a/s1", "a/s1",
                                            "a/s2", "a/s2", "a/s2",
                                            "c", "c", "c"};
    std::vector<grp::RunResult> same = runs;
    for (int i = 3; i < 6; ++i)
        same[i].workload = "a";
    const Summaries by_seed = summarize(same, seeds, {"a"});
    EXPECT_NEAR(by_seed.at("grp-var").speedup, std::sqrt(2.0), 1e-12);
}

TEST(PaperShape, HandBuiltResultSet)
{
    Summaries sims = paperValues();
    std::vector<ShapeCheck> checks = paperShapes(sims);
    EXPECT_EQ(checks.size(), 9u);
    EXPECT_DOUBLE_EQ(shapeFrac(checks), 1.0);

    // The reproduction's known deviation: stride level with SRP.
    sims["stride"].speedup = sims["srp"].speedup + 0.01;
    // And GRP/Var above GRP/Fix in traffic.
    sims["grp-var"].traffic = 1.7;
    checks = paperShapes(sims);
    EXPECT_DOUBLE_EQ(shapeFrac(checks), 7.0 / 9.0);
    for (const ShapeCheck &c : checks) {
        const bool broken =
            c.claim == "srp speedup > stride speedup" ||
            c.claim == "grp-var traffic < grp-fix traffic";
        EXPECT_EQ(c.holds, !broken) << c.claim;
    }

    // Only the orderings whose schemes ran are judged.
    const Summaries subset = {{"srp", {1.3, 3.0, 18.0}},
                              {"grp-var", {0.9, 1.2, 20.0}}};
    checks = paperShapes(subset);
    ASSERT_EQ(checks.size(), 3u);
    EXPECT_DOUBLE_EQ(shapeFrac(checks), 2.0 / 3.0);
    EXPECT_EQ(shapeFrac({}), 0.0);
}

TEST(Digest, CoversNamesAndValues)
{
    grp::obs::StatSnapshot a;
    a.counters["mem.x"] = 1;
    a.counters["mem.y"] = 2;
    a.distributions["mem.d"].p50 = 7;
    grp::obs::StatSnapshot b = a;
    EXPECT_EQ(statsDigest(a), statsDigest(b));
    b.counters["mem.y"] = 3;
    EXPECT_NE(statsDigest(a), statsDigest(b));
    b = a;
    b.distributions["mem.d"].p99 = 1;
    EXPECT_NE(statsDigest(a), statsDigest(b));
    b = a;
    b.counters.erase("mem.y");
    b.counters["mem.z"] = 2;
    EXPECT_NE(statsDigest(a), statsDigest(b));
}
