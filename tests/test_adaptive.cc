/** @file Unit tests for the adaptive feedback controller subsystem:
 *  signal sampling, the policy state machine (hysteresis, bandwidth
 *  gating, congestion), and the control-plane hooks in the region
 *  queue and cache. */

#include <gtest/gtest.h>

#include "adaptive/controller.hh"
#include "adaptive/signals.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "prefetch/region_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

using adaptive::AdaptiveController;
using adaptive::InsertPos;
using adaptive::Knob;
using obs::HintClass;

TEST(AdaptiveSignals, FirstSampleIsCumulative)
{
    adaptive::Sample feed;
    adaptive::Signals signals([&] { return feed; });
    feed.prefetchesIssued = 10;
    feed.usefulPrefetches = 4;
    const adaptive::EpochSignals s = signals.sample();
    EXPECT_EQ(s.prefetchesIssued, 10u);
    EXPECT_EQ(s.usefulPrefetches, 4u);
}

TEST(AdaptiveSignals, DeltasBetweenSamples)
{
    adaptive::Sample feed;
    adaptive::Signals signals([&] { return feed; });
    feed.prefetchesIssued = 10;
    signals.sample();
    feed.prefetchesIssued = 25;
    feed.byClass[size_t(HintClass::Spatial)].fills = 7;
    const adaptive::EpochSignals s = signals.sample();
    EXPECT_EQ(s.prefetchesIssued, 15u);
    EXPECT_EQ(s.classFills(HintClass::Spatial), 7u);
}

TEST(AdaptiveSignals, CounterResetSaturatesInsteadOfWrapping)
{
    adaptive::Sample feed;
    adaptive::Signals signals([&] { return feed; });
    feed.prefetchesIssued = 1000;
    signals.sample();
    // A stats reset dropped the counter below the primed value; the
    // post-reset cumulative value is the delta, not a huge wrap.
    feed.prefetchesIssued = 30;
    EXPECT_EQ(signals.sample().prefetchesIssued, 30u);
}

TEST(AdaptiveSignals, ReprimeDropsTheInterveningEra)
{
    adaptive::Sample feed;
    adaptive::Signals signals([&] { return feed; });
    feed.prefetchesIssued = 100;
    signals.reprime();
    feed.prefetchesIssued = 110;
    EXPECT_EQ(signals.sample().prefetchesIssued, 10u);
}

TEST(AdaptiveSignals, DerivedRatioEdgeCases)
{
    adaptive::EpochSignals s;
    // No accounted channel cycles: an idle system has headroom.
    EXPECT_DOUBLE_EQ(s.idleFraction(), 1.0);
    // Unknown queue capacity disables the occupancy signal.
    s.queueDepth = 5;
    EXPECT_DOUBLE_EQ(s.queueOccupancy(), 0.0);
    EXPECT_DOUBLE_EQ(s.classAccuracy(HintClass::Spatial), 0.0);
    EXPECT_DOUBLE_EQ(s.pollutionRate(), 0.0);
}

/** Drives the controller through hand-built epochs. */
class AdaptiveControllerTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    AdaptiveController
    make()
    {
        // Defaults: accuracy 0.20/0.60, pollution 0.02, idle
        // 0.10/0.50, occupancy 0.75, hysteresis 2, minEpochFills 8.
        return AdaptiveController(config.adaptive,
                                  config.region.recursiveDepth,
                                  [this] { return feed; });
    }

    /** One epoch where @p cls filled 100 blocks of which @p useful
     *  were used, over a channel that was @p idle_pct% idle. */
    void
    epoch(AdaptiveController &ctrl, HintClass cls, uint64_t useful,
          unsigned idle_pct = 60)
    {
        feed.byClass[size_t(cls)].fills += 100;
        feed.byClass[size_t(cls)].useful += useful;
        feed.prefetchesIssued += 100;
        feed.usefulPrefetches += useful;
        feed.l2DemandAccesses += 1000;
        feed.channelCycles += 1000;
        feed.idleCycles += idle_pct * 10;
        ctrl.onDeadline(++now);
    }

    /** An epoch with too few fills for @p cls to carry signal. */
    void
    lowSignalEpoch(AdaptiveController &ctrl, HintClass cls)
    {
        feed.byClass[size_t(cls)].fills += 2;
        feed.channelCycles += 1000;
        feed.idleCycles += 600;
        ctrl.onDeadline(++now);
    }

    SimConfig config;
    adaptive::Sample feed;
    Tick now = 0;
};

TEST_F(AdaptiveControllerTest, InitialStateMatchesGrpVar)
{
    AdaptiveController ctrl = make();
    const adaptive::ControlPlane &plane = ctrl.plane();
    EXPECT_EQ(plane.regionBlockCap(HintClass::Spatial), 64u);
    EXPECT_EQ(plane.insertPos(HintClass::Spatial), InsertPos::Lru);
    EXPECT_EQ(plane.priority(HintClass::Spatial), 1u);
    EXPECT_EQ(plane.ptrDepthCap(HintClass::Recursive), 255u);
    EXPECT_EQ(ctrl.totalTransitions(), 0u);
}

TEST_F(AdaptiveControllerTest, RaisesOnlyAfterHysteresis)
{
    AdaptiveController ctrl = make();
    epoch(ctrl, HintClass::Spatial, 80); // accuracy 0.8: good.
    EXPECT_EQ(ctrl.totalTransitions(), 0u); // One vote is not enough.
    epoch(ctrl, HintClass::Spatial, 80);
    // Second consecutive good vote: insertion and priority rise.
    EXPECT_EQ(ctrl.plane().insertPos(HintClass::Spatial),
              InsertPos::Mid);
    EXPECT_EQ(ctrl.plane().priority(HintClass::Spatial), 2u);
    // Size was already at the top of its ladder.
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 64u);
    EXPECT_EQ(ctrl.epochs(), 2u);
}

TEST_F(AdaptiveControllerTest, OscillatingAccuracyNeverFlapsAKnob)
{
    AdaptiveController ctrl = make();
    // Accuracy oscillates across the thresholds every epoch; each
    // direction flip resets the opposing streak, so with hysteresis 2
    // no knob ever moves.
    for (unsigned i = 0; i < 16; ++i)
        epoch(ctrl, HintClass::Spatial, i % 2 ? 80 : 10);
    EXPECT_EQ(ctrl.totalTransitions(), 0u);
    EXPECT_EQ(ctrl.epochs(), 16u);
}

TEST_F(AdaptiveControllerTest, LowersOnSustainedPoorAccuracy)
{
    AdaptiveController ctrl = make();
    epoch(ctrl, HintClass::Spatial, 10); // accuracy 0.1: poor.
    epoch(ctrl, HintClass::Spatial, 10);
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 16u);
    EXPECT_EQ(ctrl.plane().priority(HintClass::Spatial), 0u);
    // Insertion was already at LRU.
    EXPECT_EQ(ctrl.plane().insertPos(HintClass::Spatial),
              InsertPos::Lru);
    // Two more poor votes reach the bottom of the size ladder.
    epoch(ctrl, HintClass::Spatial, 10);
    epoch(ctrl, HintClass::Spatial, 10);
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 4u);
}

TEST_F(AdaptiveControllerTest, LowSignalEpochFreezesTheStreak)
{
    AdaptiveController ctrl = make();
    epoch(ctrl, HintClass::Spatial, 80);
    // A sparse epoch neither resets nor advances the streak...
    lowSignalEpoch(ctrl, HintClass::Spatial);
    EXPECT_EQ(ctrl.totalTransitions(), 0u);
    // ...so the next good epoch completes the hysteresis pair.
    epoch(ctrl, HintClass::Spatial, 80);
    EXPECT_EQ(ctrl.plane().insertPos(HintClass::Spatial),
              InsertPos::Mid);
    EXPECT_GT(ctrl.stats().value("lowSignalClassEpochs"), 0u);
}

TEST_F(AdaptiveControllerTest, BandwidthGatesTheSizeLadder)
{
    AdaptiveController ctrl = make();
    // Drop the size ladder first (two poor epochs).
    epoch(ctrl, HintClass::Spatial, 10);
    epoch(ctrl, HintClass::Spatial, 10);
    ASSERT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 16u);
    // Good accuracy but only 30% idle (< idleHigh 0.50): insertion
    // and priority rise, the bandwidth-spending size ladder holds.
    epoch(ctrl, HintClass::Spatial, 80, 30);
    epoch(ctrl, HintClass::Spatial, 80, 30);
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 16u);
    EXPECT_EQ(ctrl.plane().priority(HintClass::Spatial), 1u);
    // With headroom the size ladder grows again.
    epoch(ctrl, HintClass::Spatial, 80, 60);
    epoch(ctrl, HintClass::Spatial, 80, 60);
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 64u);
}

TEST_F(AdaptiveControllerTest, CongestionLowersDespiteGoodAccuracy)
{
    AdaptiveController ctrl = make();
    feed.queueCapacity = 100;
    feed.queueDepth = 90; // Occupancy 0.9 > 0.75.
    // 5% idle < idleLow 0.10 while the queue is backed up: the
    // congestion term votes poor even at 80% accuracy.
    epoch(ctrl, HintClass::Spatial, 80, 5);
    epoch(ctrl, HintClass::Spatial, 80, 5);
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 16u);
    EXPECT_EQ(ctrl.plane().priority(HintClass::Spatial), 0u);
}

TEST_F(AdaptiveControllerTest, DepthLadderOnRecursiveClass)
{
    AdaptiveController ctrl = make();
    epoch(ctrl, HintClass::Recursive, 10);
    epoch(ctrl, HintClass::Recursive, 10);
    EXPECT_EQ(ctrl.plane().ptrDepthCap(HintClass::Recursive), 3u);
    epoch(ctrl, HintClass::Recursive, 10);
    epoch(ctrl, HintClass::Recursive, 10);
    EXPECT_EQ(ctrl.plane().ptrDepthCap(HintClass::Recursive), 1u);
    // The spatial class was idle the whole time: untouched.
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 64u);
}

TEST_F(AdaptiveControllerTest, WarmupBoundaryKeepsKnobsButZerosStats)
{
    AdaptiveController ctrl = make();
    epoch(ctrl, HintClass::Spatial, 10);
    epoch(ctrl, HintClass::Spatial, 10);
    ASSERT_GT(ctrl.totalTransitions(), 0u);
    ctrl.onWarmupEnd();
    // The warmed-up operating point survives the measurement
    // boundary; the counters do not.
    EXPECT_EQ(ctrl.plane().regionBlockCap(HintClass::Spatial), 16u);
    EXPECT_EQ(ctrl.epochs(), 0u);
    EXPECT_EQ(ctrl.totalTransitions(), 0u);
}

TEST(RegionQueuePlane, PriorityTiersDrainHighFirst)
{
    setQuiet(true);
    DramSystem dram{DramConfig{}};
    adaptive::ControlPlane plane;
    plane.knobs(HintClass::Pointer).priority = 2;
    plane.knobs(HintClass::Spatial).priority = 1;

    RegionQueue queue(8, /*lifo=*/true, /*bank_aware=*/false);
    // The spatial window is newest, so LIFO order alone would drain
    // it first; the pointer tier outranks it.
    queue.addPointerTarget(0x200000, 1, 0, 0, HintClass::Pointer);
    queue.noteSpatialMiss(0x100000, 4, 0, 0, HintClass::Spatial);

    queue.setControlPlane(&plane);
    auto first = queue.dequeue(dram, 0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->hintClass, HintClass::Pointer);

    // Equal priorities reduce to the classic scan: spatial (newest)
    // drains first again.
    plane.knobs(HintClass::Pointer).priority = 1;
    queue.noteSpatialMiss(0x300000, 4, 0, 0, HintClass::Spatial);
    queue.addPointerTarget(0x400000, 1, 0, 0, HintClass::Pointer);
    auto next = queue.dequeue(dram, 0);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->hintClass, HintClass::Pointer);
}

TEST(RegionQueuePlane, OccupancyHighWaterAdvancesMonotonically)
{
    setQuiet(true);
    DramSystem dram{DramConfig{}};
    RegionQueue queue(8, true, false);
    queue.noteSpatialMiss(0x100000, 4, 0, 0);
    queue.noteSpatialMiss(0x200000, 4, 0, 0);
    queue.noteSpatialMiss(0x300000, 4, 0, 0);
    EXPECT_EQ(queue.stats().value("occupancyHighWater"), 3u);
    // Draining and refilling below the mark does not move it.
    for (bool any = true; any;) {
        any = false;
        for (unsigned ch = 0; ch < 4; ++ch)
            if (queue.dequeue(dram, ch))
                any = true;
    }
    ASSERT_TRUE(queue.empty());
    queue.noteSpatialMiss(0x400000, 4, 0, 0);
    EXPECT_EQ(queue.stats().value("occupancyHighWater"), 3u);
}

TEST(CacheInsertPos, ExplicitPositionOverridesThePolicy)
{
    setQuiet(true);
    CacheConfig cc;
    cc.sizeBytes = 2 * kBlockBytes; // One 2-way set.
    cc.assoc = 2;
    cc.latency = 1;

    {
        // LRU insertion: the prefetch is the next victim.
        Cache cache(cc, "l2lru", /*lru_insertion=*/true);
        cache.insert(0x0000, false, false);
        cache.insert(0x1000, false, false);
        auto ev = cache.insert(0x2000, true, false, InsertPos::Lru);
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->blockAddr, 0x0000u); // True LRU victim.
        auto ev2 = cache.insert(0x3000, false, false);
        ASSERT_TRUE(ev2.has_value());
        EXPECT_EQ(ev2->blockAddr, 0x2000u);
    }
    {
        // MRU insertion overriding an LRU-policy cache: the demand
        // block becomes the victim instead.
        Cache cache(cc, "l2mru", /*lru_insertion=*/true);
        cache.insert(0x0000, false, false);
        cache.insert(0x1000, false, false);
        auto ev = cache.insert(0x2000, true, false, InsertPos::Mru);
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->blockAddr, 0x0000u);
        auto ev2 = cache.insert(0x3000, false, false);
        ASSERT_TRUE(ev2.has_value());
        EXPECT_EQ(ev2->blockAddr, 0x1000u);
    }
}

} // namespace
} // namespace grp
