/**
 * @file
 * Cycle-bucketed time-series sampling.
 *
 * The harness samples throttling-relevant signals — prefetch queue
 * depth, busy DRAM channels, L2 MSHR pressure — once per bucket and
 * dumps the run's trajectories as one JSON document, making the
 * access prioritizer's behaviour over time visible instead of only
 * its end-of-run aggregates.
 */

#ifndef GRP_OBS_TIMESERIES_HH
#define GRP_OBS_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/run_observer.hh"
#include "sim/types.hh"

namespace grp
{
namespace obs
{

/** Named (tick, value) trajectories sharing one sampling bucket. As
 *  a run-loop observer it calls its probe at every multiple of the
 *  bucket (tick 0 included) and exports to its path at the end. */
class TimeSeries : public RunObserver
{
  public:
    /** Records one bucket boundary's samples. */
    using Probe = std::function<void(TimeSeries &, Tick)>;

    explicit TimeSeries(uint64_t bucket_cycles, std::string path = {},
                        Probe probe = {});

    Tick
    nextDeadline(Tick now) const override
    {
        return (now + bucket_ - 1) / bucket_ * bucket_;
    }
    bool onDeadline(Tick now) override;
    void onFinish(bool) override { exportJsonFile(path_); }

    /** Record one sample of @p series at @p cycle. */
    void record(const std::string &series, Tick cycle, double value);

    size_t seriesCount() const { return series_.size(); }
    size_t samples(const std::string &series) const;

    /** {"schema": ..., "bucket": N, "series": {name: {"t": [...],
     *  "v": [...]}}} */
    void exportJson(std::ostream &os) const;
    bool exportJsonFile(const std::string &path) const;

  private:
    struct Series
    {
        std::vector<Tick> ticks;
        std::vector<double> values;
    };

    uint64_t bucket_;
    std::map<std::string, Series> series_;
    std::string path_;
    Probe probe_;
};

} // namespace obs
} // namespace grp

#endif // GRP_OBS_TIMESERIES_HH
