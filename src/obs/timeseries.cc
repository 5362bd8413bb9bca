#include "obs/timeseries.hh"

#include "obs/atomic_file.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace grp
{
namespace obs
{

TimeSeries::TimeSeries(uint64_t bucket_cycles, std::string path,
                       Probe probe)
    : bucket_(bucket_cycles), path_(std::move(path)),
      probe_(std::move(probe))
{
    fatal_if(bucket_cycles == 0,
             "time-series bucket must be non-zero");
}

bool
TimeSeries::onDeadline(Tick now)
{
    GRP_HOST_SCOPE(1, Timeseries);
    probe_(*this, now);
    return true;
}

void
TimeSeries::record(const std::string &series, Tick cycle, double value)
{
    Series &s = series_[series];
    s.ticks.push_back(cycle);
    s.values.push_back(value);
}

size_t
TimeSeries::samples(const std::string &series) const
{
    auto it = series_.find(series);
    return it == series_.end() ? 0 : it->second.ticks.size();
}

void
TimeSeries::exportJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "grp-timeseries-v1");
    w.kv("bucket", bucket_);
    w.key("series").beginObject();
    for (const auto &[name, s] : series_) {
        w.key(name).beginObject();
        w.key("t").beginArray();
        for (Tick t : s.ticks)
            w.value(static_cast<uint64_t>(t));
        w.endArray();
        w.key("v").beginArray();
        for (double v : s.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

bool
TimeSeries::exportJsonFile(const std::string &path) const
{
    return atomicWriteFile(
        path, [this](std::ostream &os) { exportJson(os); },
        "time-series");
}

} // namespace obs
} // namespace grp
