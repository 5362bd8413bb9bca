/**
 * @file
 * The benchmark's own arithmetic, kept apart from grpbench.cc so the
 * tests can check it on hand-built inputs: the tail-percentile rule,
 * the Table 1 reference and the paper-error/shape metrics derived
 * from it, simulated throughput net of setup, and the determinism
 * digest of a run's statistics.
 */

#ifndef GRPBENCH_METRICS_HH
#define GRPBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/stat_registry.hh"

namespace grpbench
{

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/**
 * The highest percentile with at least @p beyond samples above it.
 * Nearest-rank: the value at rank n - beyond (1-based) of the sorted
 * samples, so exactly @p beyond samples rank above it; the
 * percentile is 100 * (n - beyond) / n. Not valid with n <= beyond.
 */
struct TailPercentile
{
    bool valid = false;
    double value = 0.0;
    double percentile = 0.0;
    size_t samples = 0;
};
TailPercentile tailPercentile(std::vector<double> samples,
                              size_t beyond = 10);

/** Simulated instructions per host second of the simulation loop,
 *  in millions: setup time is taken out of the wall time first. */
double simMinstPerSec(uint64_t instructions, double wall_s,
                      double setup_s);

/** One Table 1 row of the paper (ISCA 2003): geomean speedup, mean
 *  traffic ratio and mean gap from a perfect L2, in percent. */
struct PaperRow
{
    const char *scheme; ///< toString(PrefetchScheme) name.
    double speedup;
    double traffic;
    double gapPct;
};

/** The four prefetching rows the paper-error metrics compare
 *  against: stride, SRP, GRP/Fix, GRP/Var. */
const std::vector<PaperRow> &table1();

/** Table 1 columns as simulated for one scheme. */
struct SchemeSummary
{
    double speedup = 0.0;
    double traffic = 0.0;
    double gapPct = 0.0;
};

/** Scheme name -> simulated Table 1 columns. */
using Summaries = std::map<std::string, SchemeSummary>;

/**
 * Table 1 columns per scheme, computed as bench/tab01_summary does:
 * per benchmark instance, the scheme's IPC and traffic over the
 * no-prefetch run and its IPC over the perfect-L2 run, then
 * geometric means. @p runs holds every result of one grid and
 * @p instances names the benchmark instance (workload and seed) of
 * each; an instance counts only when it has a none and a perfect-L2
 * run and its workload is in @p suite.
 */
Summaries summarize(const std::vector<grp::RunResult> &runs,
                    const std::vector<std::string> &instances,
                    const std::vector<std::string> &suite);

/** Mean absolute distance from Table 1, in percentage points, over
 *  the Table 1 schemes present in the summaries. */
struct PaperError
{
    double speedupPp = 0.0;
    double trafficPp = 0.0;
    double gapPp = 0.0;
    size_t schemes = 0; ///< Table 1 rows that entered the means.
};
PaperError paperError(const Summaries &sims);

/** One Table 1 ordering and whether the simulation keeps it. */
struct ShapeCheck
{
    std::string claim;
    bool holds = false;
};

/** The Table 1 orderings whose schemes all appear in @p sims. */
std::vector<ShapeCheck> paperShapes(const Summaries &sims);

/** Share of @p checks that hold (0 for none). */
double shapeFrac(const std::vector<ShapeCheck> &checks);

/** FNV-1a over every counter and distribution summary of a run,
 *  names included, in the snapshot's sorted order. */
uint64_t statsDigest(const grp::obs::StatSnapshot &stats);

/** FNV-1a over a list of digests, in order (a round's jobs). */
uint64_t digestOfDigests(const std::vector<uint64_t> &digests);

} // namespace grpbench

#endif // GRPBENCH_METRICS_HH
