/**
 * @file
 * Suite-level helpers shared by the bench binaries: benchmark
 * groupings (Figures 10/11), scheme runners, and geometric means.
 */

#ifndef GRP_HARNESS_SUITE_HH
#define GRP_HARNESS_SUITE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"

namespace grp
{

/** All benchmarks with measurable L2 activity (crafty excluded, as
 *  in the paper's performance figures). */
std::vector<std::string> perfSuite();

/** Integer benchmarks (Figure 10 grouping; includes sphinx). */
std::vector<std::string> intSuite();

/** Floating-point benchmarks (Figure 11 grouping). */
std::vector<std::string> fpSuite();

/** Run one workload under a prefetch scheme. */
RunResult runScheme(const std::string &name, PrefetchScheme scheme,
                    const RunOptions &options,
                    CompilerPolicy policy = CompilerPolicy::Default);

/** Run one workload under an idealised cache mode. */
RunResult runPerfect(const std::string &name, Perfection perfection,
                     const RunOptions &options);

/** Speedup of @p run over @p base (IPC ratio). */
double speedup(const RunResult &run, const RunResult &base);

/** Traffic of @p run normalised to @p base. */
double trafficRatio(const RunResult &run, const RunResult &base);

/** Percent gap versus a perfect-L2 run:
 *  100 * (1 - ipc / perfect_ipc). */
double gapFromPerfect(const RunResult &run, const RunResult &perfect);

/**
 * Where a bench binary should write its JSON artefact: $GRP_BENCH_OUT
 * (created if missing) or the current directory, plus "<name>.json".
 */
std::string benchOutPath(const std::string &name);

/**
 * The bench binaries' front end to the sweep executor.
 *
 * Queue every simulation of the bench with add() (the calls only
 * record jobs), execute them all with run() — GRP_BENCH_THREADS
 * workers, default hardware concurrency — then read the results by
 * index in whatever order the bench's tables need. Because results
 * are keyed by submission index, the bench's stdout and JSON
 * artefacts are byte-identical at every thread count; only the wall
 * clock changes. run() also writes a per-job timing sidecar to
 * $GRP_BENCH_OUT/timings/<bench>.json (ignored by bench_compare.py,
 * embedded into manifest.json by bench_manifest.py finish).
 *
 * Jobs queued through addScheme()/addPerfect() share one in-memory
 * sweep recording per (workload, seed) key (harness/replay.hh): the
 * workload build, IR transform and access stream are computed once
 * and every scheme point — across every compiler policy — replays
 * them, which is what makes dense grids cheap. Results are
 * byte-identical to per-job interpretation (tests/test_sweep.cc
 * checks a shared-recording grid against standalone runs). Jobs
 * queued through raw add() never share state.
 */
class BenchSweep
{
  public:
    /** @param bench_name Artefact stem, e.g. "tab01_summary". */
    explicit BenchSweep(std::string bench_name);

    /** Queue one simulation; returns its index for result(). */
    size_t add(std::string label, std::function<RunResult()> job);

    /** Convenience: queue runScheme(name, scheme, options). */
    size_t addScheme(const std::string &name, PrefetchScheme scheme,
                     const RunOptions &options,
                     CompilerPolicy policy = CompilerPolicy::Default);

    /** Convenience: queue runPerfect(name, perfection, options). */
    size_t addPerfect(const std::string &name, Perfection perfection,
                      const RunOptions &options);

    /** Queue runWorkload(name, config, options) under @p label,
     *  sharing the sweep recording when @p config's L2 geometry
     *  matches the recording key (ablation benches varying hardware
     *  knobs or compiler policy reuse one stream per workload). */
    size_t addConfig(std::string label, const std::string &name,
                     const SimConfig &config,
                     const RunOptions &options);

    /** Execute every queued job and write the timing sidecar.
     *  Aborts (fatal) if any job threw. */
    void run();

    /** Result of the @p index-th add() (valid after run()). */
    const RunResult &result(size_t index) const;

    unsigned threads() const { return threads_; }
    double totalWallSeconds() const { return totalWallSeconds_; }

  private:
    void writeTimings() const;

    /** The shared run context for (name, seed), created on first
     *  use. The compiler policy is not part of the key — recordings
     *  build per-policy hint tables on demand over one shared op
     *  stream. */
    std::shared_ptr<SweepRecording>
    recordingFor(const std::string &name, uint64_t seed);

    std::string name_;
    std::vector<SweepJob> jobs_;
    std::vector<SweepOutcome> outcomes_;
    unsigned threads_ = 0;
    double totalWallSeconds_ = 0.0;
    std::map<std::pair<std::string, uint64_t>,
             std::shared_ptr<SweepRecording>>
        recordings_;
};

} // namespace grp

#endif // GRP_HARNESS_SUITE_HH
