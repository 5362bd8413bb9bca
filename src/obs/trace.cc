#include "obs/trace.hh"

#include "obs/atomic_file.hh"
#include "obs/bintrace.hh"
#include "obs/host_prof.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace obs
{

const char *
toString(HintClass hint)
{
    switch (hint) {
      case HintClass::None:      return "none";
      case HintClass::Spatial:   return "spatial";
      case HintClass::Pointer:   return "pointer";
      case HintClass::Recursive: return "recursive";
      case HintClass::Indirect:  return "indirect";
      case HintClass::Stride:    return "stride";
    }
    return "?";
}

const char *
toString(TraceEvent event)
{
    switch (event) {
      case TraceEvent::HintTrigger:   return "hintTrigger";
      case TraceEvent::Enqueue:       return "enqueue";
      case TraceEvent::Drop:          return "drop";
      case TraceEvent::Issue:         return "issue";
      case TraceEvent::Stall:         return "stall";
      case TraceEvent::Filtered:      return "filtered";
      case TraceEvent::Fill:          return "fill";
      case TraceEvent::FirstUse:      return "firstUse";
      case TraceEvent::EvictedUnused: return "evictedUnused";
      case TraceEvent::EvictVictim:   return "evictVictim";
      case TraceEvent::PollutionMiss: return "pollutionMiss";
      case TraceEvent::CtrlTransition: return "ctrlTransition";
    }
    return "?";
}

int
traceLevelOf(TraceEvent event)
{
    switch (event) {
      case TraceEvent::Issue:
      case TraceEvent::Fill:
      case TraceEvent::FirstUse:
      case TraceEvent::EvictedUnused:
        return 1;
      case TraceEvent::HintTrigger:
      case TraceEvent::Enqueue:
      case TraceEvent::Drop:
      case TraceEvent::Filtered:
      case TraceEvent::EvictVictim:
      case TraceEvent::PollutionMiss:
      case TraceEvent::CtrlTransition:
        return 2;
      case TraceEvent::Stall:
        return 3;
    }
    return 3;
}

size_t
formatTraceLine(char *buf, size_t cap, Tick tick,
                const TraceRecord &rec, bool warm)
{
    size_t n = (size_t)std::snprintf(
        buf, cap, "{\"t\":%llu,\"ev\":\"%s\"",
        (unsigned long long)tick, toString(rec.event));
    const auto append = [&](const char *fmt, auto value) {
        n += (size_t)std::snprintf(buf + n, cap - n, fmt, value);
    };
    if (rec.addr)
        append(",\"addr\":%llu", (unsigned long long)rec.addr);
    if (rec.hint != HintClass::None)
        append(",\"hint\":\"%s\"", toString(rec.hint));
    if (rec.channel >= 0)
        append(",\"ch\":%d", rec.channel);
    if (rec.extra >= 0)
        append(",\"x\":%lld", (long long)rec.extra);
    if (rec.site != kInvalidRefId)
        append(",\"site\":%llu", (unsigned long long)rec.site);
    if (warm)
        append("%s", ",\"warm\":true");
    if (rec.carryover)
        append("%s", ",\"carry\":true");
    append("%s", "}\n");
    return n;
}

std::vector<std::vector<std::string>>
lifecycleTables()
{
    std::vector<std::string> events;
    for (int e = 0; e <= static_cast<int>(TraceEvent::CtrlTransition);
         ++e)
        events.push_back(toString(static_cast<TraceEvent>(e)));
    std::vector<std::string> hints;
    for (int h = 0; h <= static_cast<int>(HintClass::Stride); ++h)
        hints.push_back(toString(static_cast<HintClass>(h)));
    return {std::move(events), std::move(hints)};
}

Tracer &
Tracer::instance()
{
    thread_local Tracer tracer;
    return tracer;
}

Tracer::~Tracer()
{
    close();
}

bool
Tracer::open(const std::string &path)
{
    close();
    if (path == "-") {
        out_ = stdout;
        toStdout_ = true;
        // No setvbuf: stdout may already have buffered output.
    } else {
        toStdout_ = false;
        publishPath_ = path;
        const std::string tmp = path + ".tmp";
        out_ = std::fopen(tmp.c_str(), "wb");
        if (!out_) {
            warn("cannot open trace file '%s'", tmp.c_str());
            return false;
        }
        if (!iobuf_)
            iobuf_ = std::make_unique<char[]>(kStreamBufBytes);
        std::setvbuf(out_, iobuf_.get(), _IOFBF, kStreamBufBytes);
    }
    bin_ = std::make_unique<bintrace::Writer>(
        out_, bintrace::StreamKind::Lifecycle, lifecycleTables(),
        std::vector<std::pair<std::string, std::string>>{},
        checkpointInterval_);
    records_ = 0;
    return true;
}

void
Tracer::close()
{
    if (out_) {
        bin_->finalize();
        bin_.reset();
        if (toStdout_) {
            std::fflush(out_);
        } else {
            std::fclose(out_);
            publishTempFile(publishPath_ + ".tmp", publishPath_,
                            "trace");
        }
        out_ = nullptr;
    }
    level_ = 0;
    warmup_ = false;
}

void
Tracer::record(const TraceRecord &rec)
{
    GRP_HOST_SCOPE(2, TraceEmit);
    if (!out_)
        return;
    bin_->record(rec, clock_ ? clock_->curTick() : 0, warmup_);
    ++records_;
}

} // namespace obs
} // namespace grp
