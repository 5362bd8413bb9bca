#include "spans.hh"

#include <chrono>
#include <fstream>

#include "obs/json_writer.hh"

namespace grpbench
{

namespace
{

/** Small per-thread index for span records (0 = first thread). */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name,
                           int64_t parent, int64_t job)
    : rec_(rec)
{
    if (!rec_.enabled_)
        return;
    span_.name = name;
    span_.id = rec_.nextId_.fetch_add(1);
    span_.parent = parent;
    span_.job = job;
    span_.thread = threadIndex();
    span_.startNs = nowNs();
}

SpanRecorder::Scope::~Scope()
{
    if (!rec_.enabled_)
        return;
    span_.endNs = nowNs();
    rec_.record(std::move(span_));
}

void
SpanRecorder::record(Span span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans()) {
        grp::obs::JsonWriter json(out, false);
        json.beginObject();
        json.kv("name", s.name);
        json.kv("id", s.id);
        json.kv("parent", s.parent);
        json.kv("job", s.job);
        json.kv("thread", static_cast<uint64_t>(s.thread));
        json.kv("startNs", s.startNs);
        json.kv("endNs", s.endNs);
        json.endObject();
        out << "\n";
    }
    return static_cast<bool>(out.flush());
}

} // namespace grpbench
