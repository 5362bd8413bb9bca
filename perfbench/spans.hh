/**
 * @file
 * Outside-in tracing for the traced benchmark run: spans recorded
 * around calls into the simulator's public functions, kept in memory
 * and written out when the run ends. Nothing inside the simulator is
 * instrumented; a disabled recorder costs one branch per scope.
 */

#ifndef GRPBENCH_SPANS_HH
#define GRPBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace grpbench
{

/** Monotonic host time in nanoseconds (steady_clock). */
int64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(int64_t start_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** One closed span. */
struct Span
{
    std::string name;
    int64_t id = 0;
    int64_t parent = 0; ///< 0 for a root span.
    int64_t job = -1;   ///< Job index, -1 outside jobs.
    unsigned thread = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span: opened on construction, recorded on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name, int64_t parent,
              int64_t job = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** This span's id, for children (0 when disabled). */
        int64_t id() const { return span_.id; }

      private:
        SpanRecorder &rec_;
        Span span_;
    };

    /** Every recorded span, in completion order. */
    std::vector<Span> spans() const;

    /** Write the spans as JSON lines; false when the file fails. */
    bool writeJsonl(const std::string &path) const;

  private:
    void record(Span span);

    const bool enabled_;
    std::atomic<int64_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< Guarded by mu_.
};

} // namespace grpbench

#endif // GRPBENCH_SPANS_HH
