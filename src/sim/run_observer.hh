/**
 * @file
 * The run loop's observer contract and its scheduler.
 *
 * Whatever watches a run from outside the timing model (adaptive
 * epochs, time-series sampling, telemetry and the stop poll, tracing,
 * site and host profiling) is a RunObserver that declares when it
 * must next run: a tick (nextDeadline) or a retired-instruction count
 * (nextRetireMark). The run loop caches the minimum of each, pays one
 * compare per cycle for each, and never fast-forwards past the cached
 * deadline, so a periodic observer needs no code beyond nextDeadline
 * to stay exact under fast-forward. Observers fire in registration
 * order: at equal deadlines, at the warmup boundary and at the end.
 */

#ifndef GRP_SIM_RUN_OBSERVER_HH
#define GRP_SIM_RUN_OBSERVER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace grp
{

/** nextRetireMark() of an observer with no instruction trigger. */
constexpr uint64_t kNoRetireMark = ~0ull;

class RunObserver
{
  public:
    RunObserver() = default;
    virtual ~RunObserver() = default;
    /** Registered by address: never copied or moved. */
    RunObserver(const RunObserver &) = delete;
    RunObserver &operator=(const RunObserver &) = delete;

    /** The first tick >= @p now whose onDeadline() must run (kMaxTick:
     *  none); depends only on @p now and this observer's own hooks. */
    virtual Tick nextDeadline(Tick) const { return kMaxTick; }
    /** Runs after tick @p now was simulated; false ends the run early
     *  (a clean stop, exported as partial). */
    virtual bool onDeadline(Tick) { return true; }

    virtual uint64_t nextRetireMark() const { return kNoRetireMark; }
    virtual void onRetireMark() {}

    /** The run's statistics were just reset. */
    virtual void onWarmupEnd() {}
    /** Write artefacts and reports (@p partial: stopped early); runs
     *  before the runner snapshots and exports the stat registry. */
    virtual void onFinish(bool) {}
};

/** One run's observers, in registration order. */
class RunObservers
{
  public:
    void add(RunObserver &observer) { list_.push_back(&observer); }

    Tick
    nextDeadline(Tick now) const
    {
        Tick next = kMaxTick;
        for (const RunObserver *o : list_)
            next = std::min(next, o->nextDeadline(now));
        return next;
    }

    /** Fires the observers due at @p now; false once one ends the run
     *  (the rest then do not fire). */
    bool
    fireDeadline(Tick now)
    {
        for (RunObserver *o : list_) {
            if (o->nextDeadline(now) == now && !o->onDeadline(now))
                return false;
        }
        return true;
    }

    uint64_t
    nextRetireMark() const
    {
        uint64_t next = kNoRetireMark;
        for (const RunObserver *o : list_)
            next = std::min(next, o->nextRetireMark());
        return next;
    }

    void
    fireRetireMark(uint64_t retired)
    {
        for (RunObserver *o : list_) {
            if (o->nextRetireMark() <= retired)
                o->onRetireMark();
        }
    }

    void
    warmupEnd()
    {
        for (RunObserver *o : list_)
            o->onWarmupEnd();
    }

    void
    finish(bool partial)
    {
        for (RunObserver *o : list_)
            o->onFinish(partial);
    }

  private:
    std::vector<RunObserver *> list_;
};

} // namespace grp

#endif // GRP_SIM_RUN_OBSERVER_HH
