#include "obs/site_profile.hh"

#include "obs/host_prof.hh"

#include <algorithm>

#include "obs/atomic_file.hh"
#include "obs/json_writer.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace grp
{
namespace obs
{

SiteProfiler &
SiteProfiler::instance()
{
    thread_local SiteProfiler profiler;
    return profiler;
}

void
SiteProfiler::clear()
{
    table_.clear();
    stats_.reset();
}

void
SiteProfiler::restart()
{
    table_.clear();
    stats_ = StatGroup(stats_.name());
}

SiteCounters &
SiteProfiler::entry(RefId ref, HintClass hint)
{
    const SiteKey key{ref, hint};
    auto it = table_.find(key);
    if (it == table_.end()) {
        it = table_.emplace(key, SiteCounters{}).first;
        ++stats_.counter("sitesTracked");
    }
    return it->second;
}

void
SiteProfiler::noteTrigger(RefId ref, HintClass hint)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    ++entry(ref, hint).triggers;
    ++stats_.counter("triggers");
}

void
SiteProfiler::noteEnqueue(RefId ref, HintClass hint, uint64_t candidates)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    entry(ref, hint).enqueued += candidates;
    stats_.counter("enqueued") += candidates;
}

void
SiteProfiler::noteDrop(RefId ref, HintClass hint, uint64_t candidates)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    entry(ref, hint).dropped += candidates;
    stats_.counter("dropped") += candidates;
}

void
SiteProfiler::noteIssue(RefId ref, HintClass hint)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    ++entry(ref, hint).issued;
    ++stats_.counter("issued");
}

void
SiteProfiler::noteFiltered(RefId ref, HintClass hint)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    ++entry(ref, hint).filtered;
    ++stats_.counter("filtered");
}

void
SiteProfiler::noteFill(RefId ref, HintClass hint, bool warm)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    SiteCounters &site = entry(ref, hint);
    if (warm) {
        ++site.warmupFills;
        ++stats_.counter("warmupFills");
    } else {
        ++site.fills;
        ++stats_.counter("fills");
    }
}

void
SiteProfiler::noteUseful(RefId ref, HintClass hint, uint64_t distance,
                         bool warm)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    SiteCounters &site = entry(ref, hint);
    if (warm) {
        ++site.warmupUseful;
        ++stats_.counter("warmupUseful");
    } else {
        ++site.useful;
        site.fillToUse.sample(distance);
        ++stats_.counter("useful");
    }
}

void
SiteProfiler::noteEvictedUnused(RefId ref, HintClass hint, bool warm)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    ++entry(ref, hint).evictedUnused;
    ++stats_.counter("evictedUnused");
    if (warm)
        ++stats_.counter("warmupEvictedUnused");
}

void
SiteProfiler::notePollutionMiss(RefId ref, HintClass hint)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    ++entry(ref, hint).pollutionCaused;
    ++stats_.counter("pollutionCaused");
}

void
SiteProfiler::noteContention(RefId ref, HintClass hint, uint64_t waiting)
{
    GRP_HOST_SCOPE(2, SiteProfile);
    entry(ref, hint).contentionCycles += waiting;
    stats_.counter("contentionCycles") += waiting;
}

const SiteCounters *
SiteProfiler::find(RefId ref, HintClass hint) const
{
    auto it = table_.find(SiteKey{ref, hint});
    return it == table_.end() ? nullptr : &it->second;
}

std::vector<const std::map<SiteKey, SiteCounters>::value_type *>
SiteProfiler::ranked() const
{
    std::vector<const std::map<SiteKey, SiteCounters>::value_type *>
        order;
    order.reserve(table_.size());
    for (const auto &item : table_)
        order.push_back(&item);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto *a, const auto *b) {
                         if (a->second.wasted() != b->second.wasted())
                             return a->second.wasted() >
                                    b->second.wasted();
                         return a->second.accuracy() <
                                b->second.accuracy();
                     });
    return order;
}

void
SiteProfiler::exportJson(
    std::ostream &os,
    const std::function<void(JsonWriter &)> &extra) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "grp-site-profile-v1");
    w.kv("missPenalty", missPenalty_);
    w.key("totals").beginObject();
    for (const auto &[name, counter] : stats_.counters())
        w.kv(name, counter.value());
    w.endObject();
    w.key("sites").beginArray();
    for (const auto *item : ranked()) {
        const SiteKey &key = item->first;
        const SiteCounters &site = item->second;
        w.beginObject();
        w.kv("site", key.site());
        w.kv("hint", toString(key.hint));
        w.kv("triggers", site.triggers);
        w.kv("enqueued", site.enqueued);
        w.kv("dropped", site.dropped);
        w.kv("issued", site.issued);
        w.kv("filtered", site.filtered);
        w.kv("fills", site.fills);
        w.kv("useful", site.useful);
        w.kv("evictedUnused", site.evictedUnused);
        w.kv("warmupFills", site.warmupFills);
        w.kv("warmupUseful", site.warmupUseful);
        w.kv("accuracy", site.accuracy());
        w.kv("pollutionCaused", site.pollutionCaused);
        w.kv("contentionCycles", site.contentionCycles);
        w.kv("netCycles", site.netCycles(missPenalty_));
        const DistSummary lat = summarise(site.fillToUse);
        w.key("fillToUse").beginObject();
        w.kv("samples", lat.samples);
        w.kv("mean", lat.mean);
        w.kv("p50", lat.p50);
        w.kv("p90", lat.p90);
        w.kv("p99", lat.p99);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (extra)
        extra(w);
    w.endObject();
}

bool
SiteProfiler::exportJsonFile(
    const std::string &path,
    const std::function<void(JsonWriter &)> &extra) const
{
    return atomicWriteFile(
        path,
        [this, &extra](std::ostream &os) { exportJson(os, extra); },
        "site-profile");
}

void
SiteProfiler::writeReport(std::ostream &os, size_t top_n) const
{
    os << "site profile: " << table_.size() << " (site, hint) entries; "
       << "worst offenders by evicted-unused fills "
       << "(netCyc prices a miss at " << missPenalty_ << " cycles)\n";
    char line[224];
    std::snprintf(line, sizeof(line),
                  "%8s %-10s %9s %8s %8s %8s %8s %7s %8s %8s %9s %11s\n",
                  "site", "hint", "triggers", "issued", "fills",
                  "useful", "evicted", "acc%", "p90lat", "pollut",
                  "contCyc", "netCyc");
    os << line;
    size_t shown = 0;
    for (const auto *item : ranked()) {
        if (shown++ == top_n)
            break;
        const SiteKey &key = item->first;
        const SiteCounters &site = item->second;
        const uint64_t p90 = site.fillToUse.samples()
                                 ? site.fillToUse.percentile(90.0)
                                 : 0;
        std::snprintf(line, sizeof(line),
                      "%8lld %-10s %9llu %8llu %8llu %8llu %8llu "
                      "%7.1f %8llu %8llu %9llu %11lld\n",
                      static_cast<long long>(key.site()),
                      toString(key.hint),
                      static_cast<unsigned long long>(site.triggers),
                      static_cast<unsigned long long>(site.issued),
                      static_cast<unsigned long long>(site.fills),
                      static_cast<unsigned long long>(site.useful),
                      static_cast<unsigned long long>(
                          site.evictedUnused),
                      100.0 * site.accuracy(),
                      static_cast<unsigned long long>(p90),
                      static_cast<unsigned long long>(
                          site.pollutionCaused),
                      static_cast<unsigned long long>(
                          site.contentionCycles),
                      static_cast<long long>(
                          site.netCycles(missPenalty_)));
        os << line;
    }
}

} // namespace obs
} // namespace grp
