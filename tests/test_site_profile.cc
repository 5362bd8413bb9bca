/** @file Tests for the per-hint-site profiler: unit-level funnel
 *  accounting, worst-offender ranking, the JSON export schema, and —
 *  the property the whole design hangs on — exact reconciliation of
 *  the per-site table with the engine-level StatRegistry totals over
 *  a real run. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "harness/runner.hh"
#include "harness/suite.hh"
#include "obs/json_reader.hh"
#include "obs/site_profile.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

/** Enables the global profiler for one test and always restores the
 *  disabled/empty state, so tests cannot leak into each other. */
class ProfilerGuard
{
  public:
    ProfilerGuard()
    {
        obs::SiteProfiler::instance().clear();
        obs::SiteProfiler::instance().setEnabled(true);
    }
    ~ProfilerGuard()
    {
        obs::SiteProfiler::instance().setEnabled(false);
        obs::SiteProfiler::instance().clear();
    }
};

TEST(SiteProfile, FunnelAccounting)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();

    prof.noteTrigger(7, obs::HintClass::Spatial);
    prof.noteEnqueue(7, obs::HintClass::Spatial, 12);
    prof.noteDrop(7, obs::HintClass::Spatial, 2);
    prof.noteIssue(7, obs::HintClass::Spatial);
    prof.noteFiltered(7, obs::HintClass::Spatial);
    prof.noteFill(7, obs::HintClass::Spatial, /*warm=*/false);
    prof.noteUseful(7, obs::HintClass::Spatial, 40, /*warm=*/false);
    prof.noteFill(7, obs::HintClass::Spatial, /*warm=*/true);
    prof.noteUseful(7, obs::HintClass::Spatial, 9, /*warm=*/true);
    prof.noteEvictedUnused(7, obs::HintClass::Spatial,
                           /*warm=*/false);

    const obs::SiteCounters *site =
        prof.find(7, obs::HintClass::Spatial);
    ASSERT_TRUE(site);
    EXPECT_EQ(site->triggers, 1u);
    EXPECT_EQ(site->enqueued, 12u);
    EXPECT_EQ(site->dropped, 2u);
    EXPECT_EQ(site->issued, 1u);
    EXPECT_EQ(site->filtered, 1u);
    EXPECT_EQ(site->fills, 1u);
    EXPECT_EQ(site->useful, 1u);
    EXPECT_EQ(site->evictedUnused, 1u);
    EXPECT_EQ(site->warmupFills, 1u);
    EXPECT_EQ(site->warmupUseful, 1u);
    // Only the measured-window use sampled the distance.
    EXPECT_EQ(site->fillToUse.samples(), 1u);
    EXPECT_EQ(site->fillToUse.sum(), 40u);
    EXPECT_DOUBLE_EQ(site->accuracy(), 1.0);

    // The same ref under a different hint class is a distinct site.
    prof.noteIssue(7, obs::HintClass::Pointer);
    EXPECT_EQ(prof.siteCount(), 2u);
    EXPECT_FALSE(prof.find(8, obs::HintClass::Spatial));

    // Aggregate StatGroup mirrors the table's column sums.
    EXPECT_EQ(prof.stats().value("issued"), 2u);
    EXPECT_EQ(prof.stats().value("enqueued"), 12u);
    EXPECT_EQ(prof.stats().value("useful"), 1u);
    EXPECT_EQ(prof.stats().value("sitesTracked"), 2u);
}

TEST(SiteProfile, DisabledProfilerRecordsNothing)
{
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.clear();
    ASSERT_FALSE(prof.enabled());
    // GRP_PROFILE checks enabled() before forwarding.
    GRP_PROFILE(noteIssue(3, obs::HintClass::Spatial));
    EXPECT_EQ(prof.siteCount(), 0u);
}

TEST(SiteProfile, InvalidRefProfilesAsUnattributedSite)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.noteFill(kInvalidRefId, obs::HintClass::Pointer, false);
    ASSERT_EQ(prof.siteCount(), 1u);
    EXPECT_EQ(prof.sites().begin()->first.site(), -1);
}

TEST(SiteProfile, RankedOrdersWorstFirst)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();

    // Site 1: accurate. Site 2: wasteful. Site 3: issued, no result.
    prof.noteIssue(1, obs::HintClass::Spatial);
    prof.noteFill(1, obs::HintClass::Spatial, false);
    prof.noteUseful(1, obs::HintClass::Spatial, 5, false);
    for (int i = 0; i < 3; ++i) {
        prof.noteIssue(2, obs::HintClass::Pointer);
        prof.noteFill(2, obs::HintClass::Pointer, false);
        prof.noteEvictedUnused(2, obs::HintClass::Pointer, false);
    }
    prof.noteIssue(3, obs::HintClass::Indirect);

    const auto ranked = prof.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    // Most wasted fills first; ties break toward lower accuracy.
    EXPECT_EQ(ranked[0]->first.ref, 2u);
    EXPECT_EQ(ranked[1]->first.ref, 3u);
    EXPECT_EQ(ranked[2]->first.ref, 1u);

    std::ostringstream report;
    prof.writeReport(report, 2);
    EXPECT_NE(report.str().find("pointer"), std::string::npos);
    // Top-2 report must not contain the healthy site.
    EXPECT_EQ(report.str().find("spatial"), std::string::npos);
}

TEST(SiteProfile, ExportJsonSchema)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.noteIssue(5, obs::HintClass::Spatial);
    prof.noteFill(5, obs::HintClass::Spatial, false);
    prof.noteUseful(5, obs::HintClass::Spatial, 17, false);

    std::ostringstream os;
    prof.exportJson(os);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("schema")->asString(), "grp-site-profile-v1");
    const obs::JsonValue *sites = doc->find("sites");
    ASSERT_TRUE(sites && sites->isArray());
    ASSERT_EQ(sites->asArray().size(), 1u);
    const obs::JsonValue &site = sites->asArray()[0];
    EXPECT_EQ(site.find("site")->asNumber(), 5.0);
    EXPECT_EQ(site.find("hint")->asString(), "spatial");
    EXPECT_EQ(site.find("useful")->asNumber(), 1.0);
    EXPECT_EQ(site.findPath("fillToUse.p50")->asNumber(), 17.0);
    EXPECT_EQ(doc->findPath("totals.issued")->asNumber(), 1.0);
}

/** The acceptance criterion for the profiler: per-site sums must
 *  reconcile exactly with the engine-level registry totals over the
 *  measured window of a real run. */
TEST(SiteProfile, ReconcilesWithRegistryTotals)
{
    setQuiet(true);
    const std::string path =
        ::testing::TempDir() + "grp_site_profile.json";
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 60'000;
    opts.obs.siteProfilePath = path;
    const RunResult result = runWorkload("mcf", config, opts);
    ASSERT_GT(result.prefetchFills, 0u);

    auto read = [&](const std::string &text) {
        std::string error;
        auto doc = obs::parseJson(text, &error);
        EXPECT_TRUE(doc) << error;
        return doc;
    };
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = read(text.str());
    ASSERT_TRUE(doc);

    uint64_t issued = 0, useful = 0, warm_useful = 0, evicted = 0;
    uint64_t samples = 0;
    for (const obs::JsonValue &site :
         doc->find("sites")->asArray()) {
        issued += static_cast<uint64_t>(
            site.find("issued")->asNumber());
        useful += static_cast<uint64_t>(
            site.find("useful")->asNumber());
        warm_useful += static_cast<uint64_t>(
            site.find("warmupUseful")->asNumber());
        evicted += static_cast<uint64_t>(
            site.find("evictedUnused")->asNumber());
        samples += static_cast<uint64_t>(
            site.findPath("fillToUse.samples")->asNumber());
    }

    // Sums over the table == the memory system's measured counters.
    EXPECT_EQ(issued, result.stats.value("mem.prefetchesIssued"));
    EXPECT_EQ(issued, result.prefetchFills);
    EXPECT_EQ(useful, result.usefulPrefetches);
    EXPECT_EQ(warm_useful, result.warmupUsefulPrefetches);
    EXPECT_EQ(evicted,
              result.stats.value("mem.prefetchEvictedUnused"));
    EXPECT_EQ(samples, result.usefulPrefetches);

    // The registry snapshot carries the aggregate group while the
    // profiler is active, and it must agree with the table sums.
    EXPECT_EQ(result.stats.value("siteProfile.issued"), issued);
    EXPECT_EQ(result.stats.value("siteProfile.useful"), useful);

    // The totals block of the export matches too.
    EXPECT_EQ(static_cast<uint64_t>(
                  doc->findPath("totals.issued")->asNumber()),
              issued);

    // The run-scoped guard restored the global profiler.
    EXPECT_FALSE(obs::SiteProfiler::instance().enabled());
    EXPECT_EQ(obs::SiteProfiler::instance().siteCount(), 0u);
    std::remove(path.c_str());
}

/** The accuracy-clamp counter registers as an explicit zero, so its
 *  absence can never be confused with health. */
TEST(SiteProfile, AccuracyClampCounterExportsZero)
{
    setQuiet(true);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    const RunResult result = runWorkload("mcf", config, opts);
    ASSERT_TRUE(result.stats.counters.count("mem.accuracyClampEvents"));
    EXPECT_EQ(result.stats.value("mem.accuracyClampEvents"), 0u);
    EXPECT_LE(result.usefulPrefetches, result.prefetchFills);
}

/** The profiler is thread_local, but a run must not inherit stat
 *  names an earlier run on the same thread created: a none run that
 *  follows a grp-var run exports exactly what it exports on a fresh
 *  thread. */
TEST(SiteProfile, RunAfterAnotherOnItsThreadMatchesAFreshThread)
{
    setQuiet(true);
    RunOptions opts;
    opts.maxInstructions = 50'000;
    opts.warmupInstructions = 10'000;
    opts.obs.siteProfilePath =
        ::testing::TempDir() + "grp_site_profile_reuse.json";
    const auto counters = [&](const RunResult &result) {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, value] : result.stats.counters) {
            if (name.rfind("hostProf.", 0) != 0)
                out.emplace(name, value);
        }
        return out;
    };

    std::map<std::string, uint64_t> fresh, reused;
    std::thread([&] {
        fresh = counters(runScheme("gzip", PrefetchScheme::None, opts));
    }).join();
    std::thread([&] {
        runScheme("mcf", PrefetchScheme::GrpVar, opts);
        reused = counters(runScheme("gzip", PrefetchScheme::None, opts));
    }).join();
    EXPECT_EQ(reused, fresh);
    std::remove(opts.obs.siteProfilePath.c_str());
}

} // namespace
} // namespace grp
