/** @file Tests for the pluggable DRAM backend layer: factory/env
 *  resolution, timing-model protocol invariants checked against the
 *  recorded command stream, FR-FCFS demand priority, refresh cadence,
 *  stat-schema parity with the legacy model, and the per-bank
 *  state-cycle accounting identity. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness/provenance.hh"
#include "mem/dram.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/dram_backend/timing.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

unsigned
log2u(unsigned v)
{
    unsigned shift = 0;
    while ((1u << shift) < v)
        ++shift;
    return shift;
}

/** Compose the block address that maps to (channel, bank, row,
 *  block-in-row) under the backend's block-interleaved layout. */
Addr
makeAddr(const DramConfig &cfg, unsigned channel, unsigned bank,
         uint64_t row, unsigned block = 0)
{
    const unsigned blocks_per_row_shift = log2u(cfg.rowBytes / kBlockBytes);
    const unsigned bank_shift = log2u(cfg.banksPerChannel);
    const unsigned channel_shift = log2u(cfg.channels);
    const uint64_t channel_block =
        (((row << bank_shift) | bank) << blocks_per_row_shift) | block;
    const uint64_t block_number = (channel_block << channel_shift) | channel;
    return static_cast<Addr>(block_number) << kBlockShift;
}

class DramBackendTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        unsetenv("GRP_DRAM");
    }

    /** A timing backend with its preset geometry applied. */
    std::unique_ptr<TimingDramSystem>
    makeTiming(const std::string &preset_name)
    {
        const DramPreset *preset = findDramPreset(preset_name);
        EXPECT_NE(preset, nullptr);
        DramConfig cfg;
        cfg.backend = preset_name;
        cfg.channels = preset->channels;
        cfg.banksPerChannel = preset->banksPerChannel;
        cfg.rowBytes = preset->rowBytes;
        return std::make_unique<TimingDramSystem>(cfg, preset->timing,
                                                  preset_name);
    }

    /** Tick @p dram from @p from to @p to inclusive, draining
     *  completions into @p fills when given. */
    void
    run(TimingDramSystem &dram, Tick from, Tick to,
        std::vector<MemRequest> *fills = nullptr)
    {
        for (Tick t = from; t <= to; ++t) {
            dram.tick(t);
            while (auto req = dram.popCompleted(t)) {
                if (fills)
                    fills->push_back(*req);
            }
        }
    }
};

// ---------------------------------------------------------------------
// Factory and name resolution.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, DefaultResolvesToLegacy)
{
    EXPECT_EQ(resolveDramBackendName(""), "legacy");
    DramConfig cfg;
    auto dram = makeDramBackend(cfg);
    EXPECT_STREQ(dram->name(), "legacy");
    EXPECT_FALSE(dram->queued());
}

TEST_F(DramBackendTest, EnvironmentSelectsBackend)
{
    setenv("GRP_DRAM", "hbm2", 1);
    EXPECT_EQ(resolveDramBackendName(""), "hbm2");
    // An explicit configuration wins over the environment.
    EXPECT_EQ(resolveDramBackendName("lpddr4"), "lpddr4");
    unsetenv("GRP_DRAM");
    EXPECT_EQ(resolveDramBackendName(""), "legacy");
}

TEST_F(DramBackendTest, PresetGeometryAppliedOnResolve)
{
    const DramPreset *preset = findDramPreset("hbm2");
    ASSERT_NE(preset, nullptr);
    DramConfig cfg;
    cfg.backend = "hbm2";
    resolveDramBackend(cfg);
    EXPECT_EQ(cfg.channels, preset->channels);
    EXPECT_EQ(cfg.banksPerChannel, preset->banksPerChannel);
    EXPECT_EQ(cfg.rowBytes, preset->rowBytes);

    auto dram = makeDramBackend(cfg);
    EXPECT_TRUE(dram->queued());
    EXPECT_STREQ(dram->name(), "hbm2");
    EXPECT_EQ(dram->config().channels, preset->channels);
}

TEST_F(DramBackendTest, EveryPresetConstructs)
{
    for (const std::string &name : dramPresetNames()) {
        auto dram = makeTiming(name);
        ASSERT_NE(dram, nullptr) << name;
        EXPECT_STREQ(dram->name(), name.c_str());
        EXPECT_TRUE(dram->queued());
    }
}

TEST_F(DramBackendTest, ConfigHashUnchangedForLegacyOnly)
{
    SimConfig base;
    const uint64_t legacy_hash = configHash(base);

    SimConfig named = base;
    named.dram.backend = "legacy";
    EXPECT_EQ(configHash(named), legacy_hash);

    SimConfig timing = base;
    timing.dram.backend = "ddr4-2400";
    EXPECT_NE(configHash(timing), legacy_hash);
}

// ---------------------------------------------------------------------
// Queued-backend mechanics.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, ServeReturnsPendingAndQueueBounds)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    const unsigned depth = dram->timing().queueDepth;

    for (unsigned i = 0; i < depth; ++i) {
        EXPECT_TRUE(dram->canAccept(0, 0));
        const Tick done =
            dram->serve(makeAddr(cfg, 0, i % cfg.banksPerChannel, i), 0,
                        ReqClass::Prefetch);
        EXPECT_EQ(done, kTickPending);
    }
    EXPECT_FALSE(dram->canAccept(0, 0));
    EXPECT_FALSE(dram->allIdle(0));
    // Other channels are unaffected.
    EXPECT_TRUE(dram->canAccept(1, 0));

    std::vector<MemRequest> fills;
    run(*dram, 0, 5000, &fills);
    EXPECT_EQ(fills.size(), depth);
    EXPECT_TRUE(dram->canAccept(0, 5001));
    EXPECT_TRUE(dram->allIdle(5001));
}

TEST_F(DramBackendTest, FillsCompleteInDataOrder)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    for (unsigned i = 0; i < 6; ++i)
        dram->serve(makeAddr(cfg, 0, i, 0), 0, ReqClass::Demand);
    std::vector<MemRequest> fills;
    run(*dram, 0, 5000, &fills);
    ASSERT_EQ(fills.size(), 6u);
    // Popping preserves completion (dataEnd) order; with one bus the
    // fills drain strictly serialized.
    for (size_t i = 1; i < fills.size(); ++i)
        EXPECT_NE(fills[i].blockAddr, fills[i - 1].blockAddr);
}

TEST_F(DramBackendTest, WritebacksRetireInternally)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    dram->serve(makeAddr(cfg, 0, 0, 0), 0, ReqClass::Writeback);
    std::vector<MemRequest> fills;
    run(*dram, 0, 2000, &fills);
    EXPECT_TRUE(fills.empty());
    EXPECT_TRUE(dram->allIdle(2001));
    EXPECT_EQ(dram->stats().value("transfers"), 1u);
}

// ---------------------------------------------------------------------
// Protocol invariants, checked against the recorded command stream.
// ---------------------------------------------------------------------

using Cmd = TimingDramSystem::Cmd;
using CommandRecord = TimingDramSystem::CommandRecord;

/** Assert the JEDEC-style constraints hold over @p log. */
void
checkProtocol(const std::vector<CommandRecord> &log,
              const DramTimingParams &t, unsigned channels)
{
    // Per-channel ACT history (ticks, already monotonic).
    std::vector<std::vector<Tick>> acts(channels);
    // Per-(channel,bank) last command ticks.
    std::map<std::pair<unsigned, unsigned>, Tick> last_act;
    std::map<std::pair<unsigned, unsigned>, Tick> last_pre;
    // Per-channel refresh windows [start, end).
    std::vector<std::vector<std::pair<Tick, Tick>>> refs(channels);

    for (const CommandRecord &c : log) {
        const auto key = std::make_pair(c.channel, c.bank);
        switch (c.cmd) {
          case Cmd::Act: {
            auto &hist = acts[c.channel];
            if (!hist.empty()) {
                EXPECT_GE(c.tick, hist.back() + t.tRRD)
                    << "tRRD violated on channel " << c.channel;
            }
            if (hist.size() >= 4) {
                EXPECT_GE(c.tick, hist[hist.size() - 4] + t.tFAW)
                    << "tFAW violated on channel " << c.channel;
            }
            hist.push_back(c.tick);
            auto pre = last_pre.find(key);
            if (pre != last_pre.end()) {
                EXPECT_GE(c.tick, pre->second + t.tRP)
                    << "ACT before tRP expired on channel " << c.channel
                    << " bank " << c.bank;
            }
            for (const auto &w : refs[c.channel]) {
                EXPECT_FALSE(c.tick >= w.first && c.tick < w.second)
                    << "ACT during refresh on channel " << c.channel;
            }
            last_act[key] = c.tick;
            break;
          }
          case Cmd::Pre: {
            auto act = last_act.find(key);
            ASSERT_NE(act, last_act.end())
                << "PRE with no prior ACT on channel " << c.channel
                << " bank " << c.bank;
            EXPECT_GE(c.tick, act->second + t.tRAS)
                << "PRE before tRAS on channel " << c.channel << " bank "
                << c.bank;
            last_pre[key] = c.tick;
            break;
          }
          case Cmd::Rd: {
            auto act = last_act.find(key);
            if (act != last_act.end()) {
                EXPECT_GE(c.tick, act->second + t.tRCD)
                    << "RD before tRCD on channel " << c.channel
                    << " bank " << c.bank;
            }
            break;
          }
          case Cmd::Ref:
            refs[c.channel].emplace_back(c.tick, c.tick + t.tRFC);
            break;
        }
    }
}

TEST_F(DramBackendTest, ProtocolInvariantsUnderRandomTraffic)
{
    for (const std::string &name : dramPresetNames()) {
        auto dram = makeTiming(name);
        const DramConfig &cfg = dram->config();
        std::vector<CommandRecord> log;
        dram->setCommandLog(&log);

        // Deterministic LCG traffic: mixed classes, all channels,
        // enough rows and banks to exercise PRE/ACT chains, run past
        // two refresh intervals.
        uint64_t lcg = 0x2545F4914F6CDD1Dull;
        const Tick horizon = Tick{2} * dram->timing().tREFI + 4000;
        std::vector<MemRequest> fills;
        for (Tick now = 0; now <= horizon; ++now) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            if ((lcg >> 60) < 3) { // ~3/16 of cycles offer a request.
                const unsigned ch = (lcg >> 32) & (cfg.channels - 1);
                if (dram->canAccept(ch, now)) {
                    const unsigned bank =
                        (lcg >> 40) & (cfg.banksPerChannel - 1);
                    const uint64_t row = (lcg >> 48) & 7;
                    const ReqClass cls =
                        ((lcg >> 56) & 3) == 0 ? ReqClass::Demand
                                               : ReqClass::Prefetch;
                    dram->serve(makeAddr(cfg, ch, bank, row), now, cls);
                }
            }
            dram->tick(now);
            while (auto req = dram->popCompleted(now))
                fills.push_back(*req);
        }

        EXPECT_GT(dram->stats().value("transfers"), 100u) << name;
        checkProtocol(log, dram->timing(), cfg.channels);

        // Refresh fired under continuous traffic: at least one owed
        // interval per elapsed tREFI per active channel, visible both
        // in the command log and the counter.
        const uint64_t refreshes = dram->stats().value("refreshes");
        EXPECT_GE(refreshes, uint64_t(cfg.channels)) << name;
        const auto is_ref = [](const CommandRecord &c) {
            return c.cmd == Cmd::Ref;
        };
        EXPECT_EQ(uint64_t(std::count_if(log.begin(), log.end(), is_ref)),
                  refreshes)
            << name;
    }
}

TEST_F(DramBackendTest, DemandOvertakesQueuedPrefetches)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    std::vector<CommandRecord> log;
    dram->setCommandLog(&log);

    // Three prefetches queue at t=0 on channel 0 (distinct banks and
    // rows so each is identifiable in the command stream)...
    for (unsigned i = 0; i < 3; ++i) {
        dram->serve(makeAddr(cfg, 0, i, i + 1), 0, ReqClass::Prefetch,
                    kInvalidRefId, obs::HintClass::Spatial);
    }
    dram->tick(0); // Schedules exactly one of them.

    // ...then a demand arrives late.
    const Addr demand_addr = makeAddr(cfg, 0, 3, 7);
    dram->serve(demand_addr, 1, ReqClass::Demand);

    std::vector<MemRequest> fills;
    run(*dram, 1, 5000, &fills);
    ASSERT_EQ(fills.size(), 4u);

    // The demand is scheduled ahead of both still-queued prefetches:
    // its RD is the second column command issued...
    std::vector<int64_t> rd_rows;
    for (const CommandRecord &c : log) {
        if (c.cmd == Cmd::Rd)
            rd_rows.push_back(c.row);
    }
    ASSERT_GE(rd_rows.size(), 4u);
    EXPECT_EQ(rd_rows[1], 7);

    // ...and its fill is delivered second, demand class intact.
    EXPECT_EQ(fills[1].blockAddr, demand_addr);
    EXPECT_EQ(fills[1].cls, ReqClass::Demand);
    EXPECT_EQ(fills[0].cls, ReqClass::Prefetch);
}

TEST_F(DramBackendTest, RowHitsOutrankConflictsWithinAClass)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();

    // Open row 1 on bank 0 and drain.
    dram->serve(makeAddr(cfg, 0, 0, 1), 0, ReqClass::Prefetch);
    std::vector<MemRequest> fills;
    run(*dram, 0, 2000, &fills);
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_TRUE(dram->rowOpen(makeAddr(cfg, 0, 0, 1)));

    // A conflicting prefetch queues first, then a row hit.
    const Addr conflict = makeAddr(cfg, 0, 0, 2);
    const Addr hit = makeAddr(cfg, 0, 0, 1, 1);
    dram->serve(conflict, 2001, ReqClass::Prefetch);
    dram->serve(hit, 2001, ReqClass::Prefetch);
    fills.clear();
    run(*dram, 2001, 7000, &fills);
    ASSERT_EQ(fills.size(), 2u);
    // FR-FCFS schedules the open-row hit first despite arrival order.
    EXPECT_EQ(fills[0].blockAddr, hit);
    EXPECT_EQ(fills[1].blockAddr, conflict);
    EXPECT_EQ(dram->stats().value("rowHits"), 1u);
    EXPECT_EQ(dram->stats().value("rowConflicts"), 2u);
}

// ---------------------------------------------------------------------
// Stat schema and accounting identities.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, LegacySchemaIsSubsetOfTimingSchema)
{
    DramConfig cfg;
    DramSystem legacy(cfg);
    auto timing = makeTiming("ddr4-2400");
    // Same geometry by construction (both 4 channels here); every
    // stat the legacy model exposes must exist under the timing model
    // so downstream consumers (cost reports, the adaptive
    // controller's idle signal, bench extractors) need no schema
    // switch.
    ASSERT_EQ(cfg.channels, timing->config().channels);
    const auto &timing_counters = timing->stats().counters();
    for (const auto &entry : legacy.stats().counters()) {
        EXPECT_EQ(timing_counters.count(entry.first), 1u)
            << "legacy stat " << entry.first
            << " missing from the timing backend";
    }
}

TEST_F(DramBackendTest, PerBankStateCyclesSumToChannelCycles)
{
    SimConfig config;
    config.dram.backend = "ddr4-2400";
    EventQueue events;
    MemorySystem mem(config, events);
    std::vector<uint64_t> completed;
    mem.setLoadCallback(
        [&completed](uint64_t token) { completed.push_back(token); });

    // A strided demand stream long enough to cross rows and banks.
    uint64_t token = 1;
    Addr addr = 0x10000;
    for (Tick t = 0; t <= 20000; ++t) {
        events.advanceTo(t);
        if (t % 40 == 0) {
            if (mem.load(addr, 0, {}, token)) {
                ++token;
                addr += 3 * kBlockBytes + kBlockBytes * 64;
            }
        }
        mem.tick();
    }
    EXPECT_GT(completed.size(), 100u);

    const StatGroup &stats = mem.dram().stats();
    const DramConfig &cfg = mem.dram().config();
    static const char *kStates[5] = {
        "Idle", "Open", "Activating", "Precharging", "Refreshing",
    };
    for (unsigned ch = 0; ch < cfg.channels; ++ch) {
        const uint64_t total =
            stats.value("ch" + std::to_string(ch) + "Cycles");
        EXPECT_GT(total, 0u);
        for (unsigned b = 0; b < cfg.banksPerChannel; ++b) {
            uint64_t sum = 0;
            for (const char *state : kStates) {
                sum += stats.value("ch" + std::to_string(ch) + "bank" +
                                   std::to_string(b) + state + "Cycles");
            }
            EXPECT_EQ(sum, total) << "channel " << ch << " bank " << b;
        }
    }
}

/** The per-bank counters are charged lazily, in closed form; a
 *  per-cycle tally of bankState() kept here is the reference. Random
 *  bursty traffic through the memory system, compared at random
 *  ticks (a stats() read settles), across a mid-run resetStats() and
 *  across fastForwardTicks() windows in the quiet phases. */
TEST_F(DramBackendTest, LazyBankAccountingMatchesPerCycleTally)
{
    using State = TimingDramSystem::BankState;
    static const char *kStates[5] = {
        "Idle", "Open", "Activating", "Precharging", "Refreshing",
    };
    for (const char *preset : {"ddr4-2400", "hbm2"}) {
        SimConfig config;
        config.dram.backend = preset;
        EventQueue events;
        MemorySystem mem(config, events);
        mem.setLoadCallback([](uint64_t) {});
        auto &dram = dynamic_cast<TimingDramSystem &>(mem.dram());
        const DramConfig &cfg = dram.config();

        // tally[ch][bank][state]: cycles noted since the last reset.
        std::vector<std::vector<std::array<uint64_t, 5>>> tally(
            cfg.channels,
            std::vector<std::array<uint64_t, 5>>(cfg.banksPerChannel));
        const auto count = [&](Tick from, Tick to) {
            for (Tick t = from; t < to; ++t)
                for (unsigned ch = 0; ch < cfg.channels; ++ch)
                    for (unsigned b = 0; b < cfg.banksPerChannel; ++b)
                        ++tally[ch][b][static_cast<unsigned>(
                            dram.bankState(ch, b, t))];
        };
        unsigned compares = 0;
        const auto compare = [&](Tick now) {
            ++compares;
            const StatGroup &stats = mem.dram().stats();
            for (unsigned ch = 0; ch < cfg.channels; ++ch) {
                for (unsigned b = 0; b < cfg.banksPerChannel; ++b) {
                    for (unsigned s = 0; s < 5; ++s) {
                        const std::string name =
                            "ch" + std::to_string(ch) + "bank" +
                            std::to_string(b) + kStates[s] + "Cycles";
                        ASSERT_EQ(stats.value(name), tally[ch][b][s])
                            << preset << " " << name << " at " << now;
                    }
                }
            }
        };

        uint64_t lcg = 0xD1B54A32D192ED03ull;
        const auto next = [&lcg] {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return lcg >> 17;
        };
        const Tick horizon = Tick{3} * dram.timing().tREFI;
        const Tick reset_at = horizon / 3 + next() % 1000;
        bool was_reset = false;
        uint64_t token = 1;
        uint64_t skipped = 0;
        Tick t = 0;
        while (t < horizon) {
            events.advanceTo(t);
            // Traffic in 1500-tick bursts, then as long again quiet.
            if ((t / 1500) % 2 == 0 && next() % 4 == 0) {
                const Addr addr = (next() % (1u << 20)) * kBlockBytes;
                if (next() % 4 == 0)
                    mem.store(addr, 0, {});
                else if (mem.load(addr, 0, {}, token))
                    ++token;
            }
            mem.tick();
            count(t, t + 1);
            if (!was_reset && t >= reset_at) {
                mem.resetStats();
                for (auto &banks : tally)
                    for (auto &states : banks)
                        states = {};
                was_reset = true;
            }
            if (next() % 97 == 0)
                compare(t);
            ++t;
            // Skip quiet stretches the way the runner's stall
            // fast-forward does.
            const Tick target =
                std::min({mem.nextWorkTick(t - 1), events.nextEventTick(),
                          t + next() % 400, horizon});
            if (target > t && next() % 2 == 0) {
                mem.fastForwardTicks(t, target);
                count(t, target);
                skipped += target - t;
                t = target;
                if (next() % 4 == 0)
                    compare(t - 1);
            }
        }
        compare(t);
        EXPECT_TRUE(was_reset);
        EXPECT_GT(compares, 50u) << preset;
        EXPECT_GT(skipped, horizon / 10) << preset;
        EXPECT_GT(mem.dram().stats().value("refreshes"), 0u) << preset;
        uint64_t prep = 0;
        for (const auto &banks : tally) {
            for (const auto &states : banks) {
                prep += states[static_cast<unsigned>(State::Activating)] +
                        states[static_cast<unsigned>(State::Precharging)] +
                        states[static_cast<unsigned>(State::Refreshing)];
            }
        }
        EXPECT_GT(prep, 0u) << preset;
    }
}

TEST_F(DramBackendTest, TimingRunsAreDeterministic)
{
    const auto run_once = [](uint64_t *hash) {
        SimConfig config;
        config.dram.backend = "hbm2";
        EventQueue events;
        MemorySystem mem(config, events);
        mem.setLoadCallback([](uint64_t) {});
        Addr addr = 0x40000;
        uint64_t token = 1;
        for (Tick t = 0; t <= 8000; ++t) {
            events.advanceTo(t);
            if (t % 17 == 0 && mem.load(addr, 0, {}, token)) {
                ++token;
                addr += 5 * kBlockBytes;
            }
            mem.tick();
        }
        uint64_t h = 1469598103934665603ull;
        for (const auto &entry : mem.dram().stats().counters()) {
            h = (h ^ entry.second.value()) * 1099511628211ull;
        }
        *hash = h;
    };
    uint64_t first = 0;
    uint64_t second = 0;
    run_once(&first);
    run_once(&second);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace grp
