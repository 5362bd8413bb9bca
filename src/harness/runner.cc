#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "adaptive/controller.hh"
#include "core/engine_factory.hh"
#include "core/grp_engine.hh"
#include "cpu/cpu.hh"
#include "harness/capture.hh"
#include "harness/provenance.hh"
#include "harness/replay.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/memory_system.hh"
#include "obs/atomic_file.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"
#include "obs/pulse.hh"
#include "obs/site_profile.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/env.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/run_observer.hh"
#include "workloads/predecode.hh"

namespace grp
{

namespace
{

/** Folds a host profile into a registry-visible stat group: per-phase
 *  <phase>TotalNanos / <phase>SelfNanos / <phase>Calls for every
 *  phase that fired, plus the allocation and RSS aggregates. */
void
fillHostProfStats(StatGroup &group, const obs::HostProfile &profile)
{
    for (size_t i = 0; i < obs::kNumHostPhases; ++i) {
        const obs::HostPhaseTotals &totals = profile.phases[i];
        if (!totals.calls)
            continue;
        const std::string name =
            obs::toString(static_cast<obs::HostPhase>(i));
        group.counter(name + "TotalNanos") += totals.totalNanos;
        group.counter(name + "SelfNanos") += totals.selfNanos;
        group.counter(name + "Calls") += totals.calls;
    }
    group.counter("selfSumNanos") += profile.selfSumNanos();
    group.counter("allocCount") += profile.allocCount;
    group.counter("allocBytes") += profile.allocBytes;
    group.counter("freeCount") += profile.freeCount;
    group.counter("peakRssKb") += profile.peakRssKb;
    group.counter("level") += static_cast<uint64_t>(profile.level);
}

/** Writes the --host-prof JSON report ("-" streams to stdout). */
void
writeHostProfReport(const std::string &path,
                    const obs::HostProfile &profile)
{
    if (path == "-") {
        profile.writeJson(std::cout);
        std::cout << "\n";
        return;
    }
    obs::atomicWriteFile(
        path, [&profile](std::ostream &os) { profile.writeJson(os); },
        "host profile");
}

/**
 * Host profiling for one run. Applies the run's level (an explicit
 * ObsOptions::hostProfLevel overrides the thread's inherited level)
 * and captures a baseline snapshot, so the run reports its own delta
 * even when earlier runs on the thread already accumulated time. At
 * the end of the run it folds that delta into the registry as a
 * hostProf group, so every exporter (JSON, CSV, text dump,
 * result.stats) carries it; the group exists only when the profiler
 * is active, so GRP_HOST_PROF=0 artefacts stay byte-identical to
 * unprofiled runs. Restores the previous level on destruction.
 */
class HostProfObserver final : public RunObserver
{
  public:
    HostProfObserver(const ObsOptions &obs, obs::StatRegistry &registry)
        : prevLevel_(obs::HostProfiler::instance().level()),
          path_(obs.hostProfPath), registry_(registry)
    {
        obs::HostProfiler &prof = obs::HostProfiler::instance();
        if (obs.hostProfLevel >= 0)
            prof.setLevel(obs.hostProfLevel);
        active_ = prof.level() > 0;
        if (active_)
            base_ = prof.snapshot();
    }

    ~HostProfObserver() override
    {
        obs::HostProfiler::instance().setLevel(prevLevel_);
    }

    void
    onFinish(bool) override
    {
        if (!active_)
            return;
        fillHostProfStats(stats_, profile());
        reg_.emplace(stats_, registry_);
    }

    /** Writes the --host-prof report of a finished run; the runner
     *  calls it once the run scope closed, so the report prices
     *  everything but its own serialization. */
    void
    writeReport() const
    {
        if (reg_ && !path_.empty())
            writeHostProfReport(path_, profile());
    }

  private:
    /** The profiler's delta since this run began. */
    obs::HostProfile
    profile() const
    {
        return obs::HostProfiler::instance().snapshot().delta(base_);
    }

    int prevLevel_;
    std::string path_;
    obs::StatRegistry &registry_;
    bool active_ = false;
    obs::HostProfile base_;
    StatGroup stats_{"hostProf"};
    std::optional<obs::ScopedStatRegistration> reg_;
};

/**
 * The thread's tracer for one run: opens it (when the run asked for a
 * trace), flips it out of warmup at the boundary, and closes it and
 * unhooks it from the run's clock on destruction. Level 3 records a
 * Stall event per throttled cycle, which fast-forward cannot batch,
 * so a level-3 tracer declares a deadline on every cycle.
 */
class TraceObserver final : public RunObserver
{
  public:
    TraceObserver(const ObsOptions &obs, const EventQueue &events,
                  bool warming)
    {
        obs::Tracer &tracer = obs::Tracer::instance();
        // open() warns on failure
        if (!obs.tracePath.empty() &&
            tracer.open(obs.tracePath)) {
            active_ = true;
            tracer.setLevel(obs.traceLevel);
            tracer.setClock(&events);
            tracer.setWarmup(warming);
        }
        perCycle_ = tracer.enabled(3);
    }

    ~TraceObserver() override
    {
        if (!active_)
            return;
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setClock(nullptr);
        tracer.close();
    }

    Tick
    nextDeadline(Tick now) const override
    {
        return perCycle_ ? now : kMaxTick;
    }

    void
    onWarmupEnd() override
    {
        obs::Tracer::instance().setWarmup(false);
    }

  private:
    bool active_ = false;
    bool perCycle_ = false;
};

/** The counterfactual cost report: what prefetching destroyed
 *  (pollution, channel contention) next to what it earned
 *  (coverage), with per-site attribution from the site profiler. */
void
printCostReport(std::ostream &os, MemorySystem &mem,
                const SimConfig &config)
{
    const StatGroup &ms = mem.stats();
    const uint64_t both = ms.value("pollutionBothHits");
    const uint64_t baseline = ms.value("pollutionBaselineMisses");
    const uint64_t pollution = ms.value("pollutionMisses");
    const uint64_t coverage = ms.value("pollutionCoverageHits");
    const uint64_t shadow_misses = ms.value("pollutionShadowMisses");
    const uint64_t real_misses = ms.value("l2DemandMissesTotal");

    os << "counterfactual cost report (shadow tags)\n";
    os << "  demand L2 accesses " << ms.value("l2DemandAccesses")
       << ": hit both " << both << ", baseline misses " << baseline
       << ", coverage hits " << coverage << ", pollution misses "
       << pollution << "\n";
    os << "  pollution attribution: " << ms.value("pollutionAttributed")
       << " charged to a site, " << ms.value("pollutionUnattributed")
       << " unattributed; victim table recorded "
       << ms.value("pollutionVictimsRecorded") << ", dropped "
       << ms.value("pollutionVictimDrops") << " (capacity "
       << mem.victimTable().capacity() << ")\n";
    os << "  identity: coverage - pollution = "
       << (static_cast<int64_t>(coverage) -
           static_cast<int64_t>(pollution))
       << ", shadow misses - real misses = "
       << (static_cast<int64_t>(shadow_misses) -
           static_cast<int64_t>(real_misses)) << "\n";

    os << "  channel cycles (demand/prefetch/writeback/idle):\n";
    for (unsigned ch = 0; ch < config.dram.channels; ++ch) {
        const DramBackend::ChannelCycles c = mem.dram().channelCycles(ch);
        os << "    ch" << ch << ": " << c.demand << " / " << c.prefetch
           << " / " << c.writeback << " / " << c.idle << " (total "
           << c.total() << ")\n";
    }
    os << "  demand request-cycles stalled behind prefetch transfers: "
       << mem.dram().stats().value("contentionDemandStallCycles")
       << "\n";

    const obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    const uint64_t penalty = prof.missPenalty();
    std::vector<
        const std::map<obs::SiteKey, obs::SiteCounters>::value_type *>
        order;
    for (const auto &item : prof.sites())
        order.push_back(&item);
    std::stable_sort(order.begin(), order.end(),
                     [penalty](const auto *a, const auto *b) {
                         return a->second.netCycles(penalty) <
                                b->second.netCycles(penalty);
                     });
    os << "  worst sites by net cycles (useful - pollution) * "
       << penalty << " - contention:\n";
    size_t shown = 0;
    for (const auto *item : order) {
        if (shown++ == 10)
            break;
        const obs::SiteKey &key = item->first;
        const obs::SiteCounters &site = item->second;
        os << "    site " << key.site() << " (" << toString(key.hint)
           << "): useful " << site.useful << ", pollution "
           << site.pollutionCaused << ", contention "
           << site.contentionCycles << ", net "
           << site.netCycles(penalty) << "\n";
    }
}

/**
 * The thread's site profiler for one run. It starts from an empty
 * table and stat group, registers the aggregate group into the run's
 * registry so exports carry the totals, restarts the table at the
 * warmup boundary, and writes the profile JSON, the worst-offender
 * report and the cost report (which implies profiling) at the end.
 * Disables and wipes the profiler on destruction.
 */
class SiteProfileObserver final : public RunObserver
{
  public:
    SiteProfileObserver(const ObsOptions &obs,
                        obs::StatRegistry &registry, MemorySystem &mem,
                        const SimConfig &config)
        : obs_(obs), mem_(mem), config_(config),
          active_(!obs.siteProfilePath.empty() ||
                  obs.siteReportTop > 0 || obs.costReport)
    {
        if (!active_)
            return;
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        prof.restart();
        prof.setEnabled(true);
        // Net-cycles prices one avoided/suffered miss at a full
        // memory round trip under this run's DRAM timing.
        prof.setMissPenalty(config.dram.rowConflictCycles +
                            config.dram.transferCycles);
        reg_.emplace(prof.stats(), registry);
    }

    ~SiteProfileObserver() override
    {
        if (!active_)
            return;
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        prof.setEnabled(false);
        prof.clear();
    }

    /** Restart the table with the measured window so its column sums
     *  reconcile with the post-reset registry totals (warmup-era
     *  fills still in flight attribute to the warmup columns via
     *  PrefetchFillInfo::warm). */
    void
    onWarmupEnd() override
    {
        obs::SiteProfiler::instance().clear();
    }

    void
    onFinish(bool partial) override
    {
        if (!active_)
            return;
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        if (!obs_.siteProfilePath.empty()) {
            prof.exportJsonFile(obs_.siteProfilePath,
                                [partial](obs::JsonWriter &json) {
                                    if (partial)
                                        json.kv("partial", true);
                                });
        }
        if (obs_.siteReportTop > 0)
            prof.writeReport(std::cout,
                             static_cast<size_t>(obs_.siteReportTop));
        if (obs_.costReport)
            printCostReport(std::cout, mem_, config_);
    }

  private:
    const ObsOptions &obs_;
    MemorySystem &mem_;
    const SimConfig &config_;
    bool active_;
    std::optional<obs::ScopedStatRegistration> reg_;
};

/**
 * Environment-forced tracing for overhead measurement: with
 * GRP_TRACE_ALL=<dir> set, every run that did not ask for a trace
 * writes one into <dir> anyway — which is how the bench suite prices
 * always-on flight recording without teaching every bench binary a
 * trace flag. GRP_TRACE_LEVEL (default the ObsOptions default) picks
 * the level. Filenames carry the pid plus a process-wide counter so
 * concurrent sweep jobs and repeated runs never collide.
 */
void
applyForcedTrace(ObsOptions &obs)
{
    const char *dir = std::getenv("GRP_TRACE_ALL");
    if (!dir || !*dir || !obs.tracePath.empty())
        return;
    static std::atomic<uint64_t> counter{0};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ostringstream path;
    path << dir << "/trace-" << getpid() << '-'
         << counter.fetch_add(1) << ".grpbin";
    obs.tracePath = path.str();
    obs.traceLevel = static_cast<int>(envInt(
        "GRP_TRACE_LEVEL", static_cast<uint64_t>(obs.traceLevel)));
}

/**
 * The run's live-telemetry meter: on a run-owned sidecar (--pulse),
 * on the shared process-wide stream ($GRP_PULSE) that multiplexes
 * every sweep job, or, with neither, on no sink at all — then it
 * only polls for a clean stop.
 */
obs::PulseMeter
makePulseMeter(const std::string &workload, const SimConfig &config,
               const RunOptions &options, uint64_t warmup,
               std::function<obs::PulseSample()> sampler)
{
    const bool owns = !options.obs.pulsePath.empty();
    std::shared_ptr<obs::PulseSink> sink =
        owns ? std::make_shared<obs::PulseSink>(options.obs.pulsePath)
             : obs::PulseSink::process();
    if (sink && !sink->ok())
        sink.reset();
    obs::PulseRunMeta meta;
    if (!owns) {
        meta.job = !obs::pulseJobLabel().empty()
                       ? obs::pulseJobLabel()
                       : workload + "/" + toString(config.scheme);
    }
    meta.workload = workload;
    meta.scheme = toString(config.scheme);
    meta.seed = options.seed;
    meta.targetInstructions = options.maxInstructions + warmup;
    return obs::PulseMeter(std::move(sink), owns, options.obs.pulse,
                           std::move(meta), std::move(sampler));
}

/** Beat-cadence snapshot of the run's key rates; string stat lookups
 *  are fine here — this runs a few hundred times per run, not per
 *  cycle. */
obs::PulseSample
samplePulse(const Cpu &cpu, MemorySystem &mem,
            const PrefetchEngine *engine, const SimConfig &config)
{
    obs::PulseSample s;
    s.instructions = cpu.retiredInstructions();
    s.cycles = cpu.cycles();
    const StatGroup &ms = mem.stats();
    s.prefetchesIssued = ms.value("prefetchesIssued");
    s.prefetchFills = ms.value("prefetchFills");
    s.usefulPrefetches = ms.value("usefulPrefetches");
    s.pollutionMisses = ms.value("pollutionMisses");
    if (engine) {
        s.queueDepth = engine->queueDepth();
        s.queueCapacity = config.region.queueEntries;
    }
    const StatGroup &ds = mem.dram().stats();
    s.dramIdleCycles = ds.value("contentionIdleCycles");
    s.dramTotalCycles = s.dramIdleCycles +
                        ds.value("contentionDemandCycles") +
                        ds.value("contentionPrefetchCycles") +
                        ds.value("contentionWritebackCycles");
    return s;
}

/** One time-series bucket: queue, channel, bank and MSHR occupancy,
 *  plus the adaptive controller's state when it runs. */
void
sampleSeries(obs::TimeSeries &series, Tick now, MemorySystem &mem,
             const PrefetchEngine *engine,
             const adaptive::AdaptiveController *controller)
{
    series.record("prefetchQueueDepth", now,
                  engine ? static_cast<double>(engine->queueDepth())
                         : 0.0);
    series.record("busyChannels", now, mem.dram().busyChannels(now));
    // Bank prep visibility exists only on queued backends; gating the
    // track keeps legacy time-series artefacts byte-identical.
    if (mem.dram().queued())
        series.record("activeBanks", now, mem.dram().activeBanks(now));
    series.record("l2MshrInFlight", now, mem.l2Mshrs().inFlight());
    series.record("demandQueueDepth", now,
                  static_cast<double>(mem.demandQueueDepth()));
    series.record("writebackQueueDepth", now,
                  static_cast<double>(mem.writebackQueueDepth()));
    if (controller) {
        series.record("adaptiveSpatialRegionBlocks", now,
                      static_cast<double>(
                          controller->spatialRegionBlocks()));
        series.record("adaptiveTransitions", now,
                      static_cast<double>(
                          controller->totalTransitions()));
    }
}

/** The measured-window metrics of a finished run; the stats snapshot
 *  is taken later, once every observer has finished. */
RunResult
collectResult(const std::string &workload, const SimConfig &config,
              const WorkloadInfo &info, const HintStats &hint_stats,
              const Cpu &cpu, MemorySystem &mem,
              const PrefetchEngine *engine, uint64_t warm_instructions,
              uint64_t warm_cycles, bool partial)
{
    RunResult result;
    result.workload = workload;
    result.scheme = config.scheme;
    result.perfection = config.perfection;
    result.partial = partial;
    result.info = info;
    result.instructions = cpu.retiredInstructions() - warm_instructions;
    result.cycles = cpu.cycles() - warm_cycles;
    result.ipc = result.cycles
                     ? static_cast<double>(result.instructions) /
                           static_cast<double>(result.cycles)
                     : 0.0;
    result.trafficBytes = mem.trafficBytes();
    result.l2DemandAccesses = mem.stats().value("l2DemandAccesses");
    result.l2MissesTotal = mem.stats().value("l2DemandMissesTotal");
    result.l2MissesToMemory = mem.l2DemandMisses();
    result.prefetchFills = mem.stats().value("prefetchFills");
    // Measured-window first-uses only; warmup-era fills consumed
    // after the boundary are attributed separately so accuracy()
    // compares fills and uses over the same window.
    result.usefulPrefetches = mem.stats().value("usefulPrefetches");
    result.warmupUsefulPrefetches =
        mem.stats().value("usefulPrefetchWarmupCarryover");
    // Structural invariant behind RunResult::accuracy(): warmup
    // carryover is attributed separately, so measured-window uses
    // cannot exceed measured-window fills. A violation is an
    // attribution bug — count it (the stat exports as 0 in healthy
    // runs) and abort debug builds.
    if (result.usefulPrefetches > result.prefetchFills) {
        ++mem.stats().counter("accuracyClampEvents");
        warn("accuracy invariant violated: useful %llu > fills %llu",
             (unsigned long long)result.usefulPrefetches,
             (unsigned long long)result.prefetchFills);
        assert(!"useful prefetches exceeded prefetch fills");
    }
    result.hints = hint_stats;

    if (const auto *grp_engine = dynamic_cast<const GrpEngine *>(engine)) {
        const Distribution &sizes = grp_engine->regionSizes();
        for (unsigned blocks = 1; blocks <= kBlocksPerRegion;
             blocks <<= 1) {
            const uint64_t count = sizes.count(blocks);
            if (count)
                result.regionSizes[blocks] = count;
        }
    }
    return result;
}

} // namespace

uint64_t
instructionBudget(uint64_t fallback)
{
    const uint64_t budget = envInt("GRP_INSTRUCTIONS", 0);
    return budget > 0 ? budget : fallback;
}

RunResult
runWorkload(const std::string &workload_name, SimConfig config,
            const RunOptions &options_in)
{
    RunOptions options = options_in;
    applyForcedTrace(options.obs);
    const ObsOptions &obs = options.obs;
    // Every component of this run registers into a run-local registry,
    // so concurrent sweep jobs (and same-thread nested runs) never
    // share or clobber each other's statistics.
    obs::StatRegistry registry;
    RunObservers observers;
    HostProfObserver host_prof(obs, registry);
    observers.add(host_prof);
    GRP_HOST_SCOPE_NAMED(run_scope, 1, Run);
    GRP_HOST_SCOPE_NAMED(setup_scope, 1, Setup);
    auto workload = makeWorkload(workload_name);
    const WorkloadInfo info = workload->info();
    if (info.recursiveDepthOverride != 0)
        config.region.recursiveDepth = info.recursiveDepthOverride;
    // Resolve the DRAM backend up front so everything downstream —
    // the provenance config hash, the cost report's channel walk and
    // the memory system's queue sizing — sees the same resolved name
    // and preset geometry.
    resolveDramBackend(config.dram);
    config.validate();

    // Workload context: built fresh for standalone runs, shared
    // through the sweep recording for grid jobs (harness/replay.hh).
    // The recording's key must match this run exactly — its program,
    // memory image and hint table were computed for that key.
    SweepRecording *rec = options.recording.get();
    if (rec) {
        fatal_if(rec->workload() != workload_name,
                 "sweep recording is for workload '%s', not '%s'",
                 rec->workload().c_str(), workload_name.c_str());
        fatal_if(rec->seed() != options.seed,
                 "sweep recording is for seed %llu, not %llu",
                 (unsigned long long)rec->seed(),
                 (unsigned long long)options.seed);
        fatal_if(rec->l2Bytes() != config.l2.sizeBytes,
                 "sweep recording targets a %llu-byte L2, not %llu",
                 (unsigned long long)rec->l2Bytes(),
                 (unsigned long long)config.l2.sizeBytes);
        fatal_if(!options.capturePath.empty() ||
                     !options.replayPath.empty(),
                 "an in-memory sweep recording is mutually exclusive "
                 "with --capture/--replay");
    }
    FunctionalMemory own_fmem;
    std::optional<Program> own_prog;
    HintTable own_table;
    HintStats hint_stats;
    if (rec) {
        hint_stats = rec->hintStats(config.policy);
    } else {
        own_prog.emplace(workload->build(own_fmem, options.seed));
        HintGenerator generator(config.policy, config.l2.sizeBytes);
        hint_stats = generator.run(*own_prog, own_table);
    }
    FunctionalMemory &fmem = rec ? rec->memory() : own_fmem;
    const HintTable &table =
        rec ? rec->hints(config.policy) : own_table;

    EventQueue events;
    MemorySystem mem(config, events, registry);
    if (obs.shadow || obs.costReport)
        mem.enableShadowTags();
    auto engine = makePrefetchEngine(config, fmem, mem, registry);

    // The feedback controller is a run-local layer above the engine:
    // it samples only this run's registry-backed counters, so sweep
    // determinism is untouched. A null plane everywhere else means
    // the hardware behaves exactly as before.
    fatal_if(obs.adaptiveReport && !config.usesAdaptiveController(),
             "--adaptive-report requires the grp-adaptive scheme");
    std::optional<adaptive::AdaptiveController> controller;
    if (config.usesAdaptiveController()) {
        controller.emplace(config.adaptive, config.region.recursiveDepth,
                           adaptive::memorySource(
                               mem, engine.get(),
                               config.region.queueEntries),
                           registry);
        mem.setControlPlane(&controller->plane());
        if (auto *grp_engine = dynamic_cast<GrpEngine *>(engine.get()))
            grp_engine->setControlPlane(&controller->plane());
    }

    // The CPU's op source: the interpreter normally, a recorded
    // capture under --replay, and a capturing tee around the
    // interpreter under --capture. Replay rebuilds the same
    // functional memory (the workload/seed check above the stream
    // guarantees build() produced identical contents), so the
    // recorded ops reproduce the live run exactly.
    fatal_if(!options.capturePath.empty() &&
                 !options.replayPath.empty(),
             "--capture and --replay are mutually exclusive");
    std::unique_ptr<TraceSource> interp;
    std::optional<ReplayTraceSource> replay;
    std::optional<CaptureTraceSource> capture;
    TraceSource *source = nullptr;
    if (!options.replayPath.empty()) {
        replay.emplace(options.replayPath);
        fatal_if(replay->workload() != workload_name,
                 "capture '%s' records workload '%s', not '%s'",
                 options.replayPath.c_str(),
                 replay->workload().c_str(), workload_name.c_str());
        fatal_if(replay->seed() != options.seed,
                 "capture '%s' records seed %llu, not %llu (functional "
                 "memory would differ)",
                 options.replayPath.c_str(),
                 (unsigned long long)replay->seed(),
                 (unsigned long long)options.seed);
        source = &*replay;
    } else if (rec) {
        interp = SweepRecording::makeReader(options.recording);
        source = interp.get();
    } else {
        interp = makeTraceSource(*own_prog, fmem, options.seed);
        source = interp.get();
    }
    if (!options.capturePath.empty()) {
        capture.emplace(*source, options.capturePath, workload_name,
                        options.seed);
        source = &*capture;
    }
    const HintTable *cpu_hints = config.usesHints() ? &table : nullptr;
    Cpu cpu(config, mem, events, *source, cpu_hints, registry);

    const uint64_t warmup =
        options.warmupInstructions == ~0ull
            ? options.maxInstructions / 4
            : options.warmupInstructions;

    // Observers fire in registration order. The order below keeps
    // the adaptive epoch ahead of the time-series sample that reads
    // its knobs, and the reports in their stdout order: site, cost,
    // adaptive (then the runner's stats dump).
    TraceObserver trace(obs, events, warmup > 0);
    observers.add(trace);
    SiteProfileObserver site_profile(obs, registry, mem, config);
    observers.add(site_profile);
    if (controller) {
        if (obs.adaptiveReport)
            controller->setReport(&std::cout);
        observers.add(*controller);
    }
    std::optional<obs::TimeSeries> series;
    if (!obs.timeseriesPath.empty()) {
        series.emplace(obs.timeseriesBucket, obs.timeseriesPath,
                       [&](obs::TimeSeries &s, Tick now) {
                           sampleSeries(s, now, mem, engine.get(),
                                        controller ? &*controller
                                                   : nullptr);
                       });
        observers.add(*series);
    }
    obs::PulseMeter pulse = makePulseMeter(
        workload_name, config, options, warmup,
        [&] { return samplePulse(cpu, mem, engine.get(), config); });
    observers.add(pulse);

    // Stall fast-forward (docs/PERFORMANCE.md): jump over cycles in
    // which nothing can change, batch-applying their accounting.
    const bool fast_forward = envInt("GRP_FAST_FORWARD", 1) != 0;
    setup_scope.stop();

    GRP_HOST_SCOPE_NAMED(loop_scope, 1, SimLoop);
    Tick cycle = 0;
    Tick deadline = observers.nextDeadline(0);
    uint64_t warm_instructions = 0;
    uint64_t warm_cycles = 0;
    bool measuring = warmup == 0;
    // The warmup boundary and the observers' instruction triggers
    // share one retire mark.
    const auto next_retire_mark = [&] {
        return std::min(measuring ? kNoRetireMark : warmup,
                        observers.nextRetireMark());
    };
    uint64_t retire_mark = next_retire_mark();
    bool stopped = false;
    while (!cpu.done() &&
           cpu.retiredInstructions() <
               options.maxInstructions + warmup) {
        {
            GRP_HOST_SCOPE(2, Events);
            events.advanceTo(cycle);
        }
        cpu.tick();
        mem.tick();
        if (cycle == deadline) {
            if (!observers.fireDeadline(cycle)) {
                stopped = true;
                break;
            }
            deadline = observers.nextDeadline(cycle + 1);
        }
        ++cycle;
        if (cpu.retiredInstructions() >= retire_mark) {
            if (!measuring && cpu.retiredInstructions() >= warmup) {
                // End of warmup: discard cold-start statistics.
                mem.resetStats();
                if (engine)
                    engine->stats().reset();
                observers.warmupEnd();
                warm_instructions = cpu.retiredInstructions();
                warm_cycles = cycle;
                measuring = true;
            }
            observers.fireRetireMark(cpu.retiredInstructions());
            retire_mark = next_retire_mark();
        }
        // Tick cycle-1 is done. Skip ticks cycle, cycle+1, ... while
        // the CPU only repeats its stall accounting, no event fires,
        // the memory system only repeats its per-cycle accounting, no
        // observer deadline falls and the deadlock watchdog is quiet.
        const Cpu::StallState st =
            fast_forward ? cpu.stallState(cycle - 1) : Cpu::StallState{};
        if (st.stalled) {
            GRP_HOST_SCOPE(2, Events);
            const Tick target = std::min(
                {events.nextEventTick(), st.readyTick,
                 mem.nextWorkTick(cycle - 1), cpu.deadlockTick(),
                 deadline});
            if (target > cycle) {
                cpu.fastForward(target - cycle, st.robFullPath);
                mem.fastForwardTicks(cycle, target);
                cycle = target;
            }
        }
    }
    loop_scope.stop();

    GRP_HOST_SCOPE_NAMED(finish_scope, 1, Finish);
    RunResult result = collectResult(
        workload_name, config, info, hint_stats, cpu, mem, engine.get(),
        warm_instructions, warm_cycles, stopped);
    finish_scope.stop();

    GRP_HOST_SCOPE_NAMED(export_scope, 1, StatsExport);
    observers.finish(stopped);
    // The snapshot and the exports read the counters through the
    // registry, past DramBackend::stats(): settle the lazily charged
    // per-bank counters first.
    mem.dram().settle();
    result.stats = registry.snapshot();
    if (!obs.statsJsonPath.empty()) {
        // Top-level additions: the partial-run marker (only on
        // interrupted runs) and the provenance block (only when
        // asked). When neither fires the document is byte-identical
        // to the historical format.
        registry.exportJsonFile(
            obs.statsJsonPath, [&](obs::JsonWriter &json) {
                if (result.partial)
                    json.kv("partial", true);
                if (obs.statsProvenance) {
                    json.key("provenance");
                    writeProvenance(json, config);
                }
            });
    }
    if (!obs.statsCsvPath.empty())
        registry.exportCsvFile(obs.statsCsvPath);
    if (obs.dumpStats)
        registry.dumpText(std::cout);
    export_scope.stop();
    run_scope.stop();
    host_prof.writeReport();
    return result;
}

} // namespace grp
