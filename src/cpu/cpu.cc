#include "cpu/cpu.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

Cpu::Cpu(const SimConfig &config, MemorySystem &mem, EventQueue &events,
         TraceSource &trace, const HintTable *hints,
         obs::StatRegistry &registry)
    : config_(config),
      mem_(mem),
      events_(events),
      trace_(trace),
      hints_(hints),
      stats_("cpu"),
      statReg_(stats_, registry)
{
    robCapacity_ = config.cpu.robEntries;
    size_t storage = 1;
    while (storage < robCapacity_)
        storage <<= 1;
    robEntries_.resize(storage);
    robMask_ = storage - 1;
    mem_.setLoadCallback([this](uint64_t token) { loadDone(token); });
    robFullStalls_ = &stats_.counter("robFullStalls");
    loads_ = &stats_.counter("loads");
    stores_ = &stats_.counter("stores");
    indirectPrefetchOps_ = &stats_.counter("indirectPrefetchOps");
    memStalls_ = &stats_.counter("memStalls");
}

void
Cpu::loadDone(uint64_t token)
{
    const size_t slot = static_cast<uint32_t>(token);
    const uint32_t generation = static_cast<uint32_t>(token >> 32);
    panic_if(slot >= robEntries_.size(), "bad load token slot");
    RobEntry &entry = robEntries_[slot];
    panic_if(!entry.busy || !entry.waitingOnLoad ||
             entry.generation != generation,
             "load completion for a stale ROB slot");
    entry.waitingOnLoad = false;
    entry.readyAt = events_.curTick();
}

bool
Cpu::fetchNext()
{
    while (!havePending_) {
        if (batchPos_ == batchLen_) {
            if (traceDone_)
                return false;
            GRP_HOST_SCOPE(2, Interp);
            batchLen_ = trace_.nextBatch(&batch_);
            batchPos_ = 0;
            if (batchLen_ == 0) {
                traceDone_ = true;
                return false;
            }
        }
        const TraceOp &op = batch_[batchPos_++];
        // An unhinted binary contains no indirect prefetch
        // instructions at all, so they cost nothing there.
        if (op.kind == OpKind::IndirectPrefetch &&
            (!hints_ || !config_.usesHints())) {
            continue;
        }
        pendingOp_ = op;
        havePending_ = true;
    }
    return true;
}

void
Cpu::tick()
{
    GRP_HOST_SCOPE(2, CpuTick);
    const Tick now = events_.curTick();
    ++cycles_;

    // Retire up to retireWidth completed instructions in order.
    unsigned retired_now = 0;
    while (retired_now < config_.cpu.retireWidth && robCount_ > 0) {
        RobEntry &head = robEntries_[robHead_];
        if (head.waitingOnLoad || head.readyAt > now)
            break;
        head.busy = false;
        robHead_ = (robHead_ + 1) & robMask_;
        --robCount_;
        ++retired_;
        ++retired_now;
        lastRetireTick_ = now;
    }

    if (robCount_ > 0 && now - lastRetireTick_ > config_.deadlockCycles)
        panic("no instruction retired for %llu cycles: deadlock",
              (unsigned long long)config_.deadlockCycles);

    // Issue up to issueWidth instructions.
    for (unsigned issued = 0; issued < config_.cpu.issueWidth; ++issued) {
        if (robFull()) {
            ++*robFullStalls_;
            break;
        }
        if (!fetchNext())
            break;

        const size_t slot = robTail_;
        RobEntry &entry = robEntries_[slot];
        ++entry.generation;
        const uint64_t token =
            (static_cast<uint64_t>(entry.generation) << 32) | slot;

        bool accepted = true;
        bool waiting = false;
        Tick ready = now + config_.cpu.computeLatency;

        switch (pendingOp_.kind) {
          case OpKind::Compute:
            break;
          case OpKind::Load: {
            // An L1 hit completes synchronously (hit_ready is the
            // completion tick); only misses round-trip through the
            // event queue and the loadDone callback.
            Tick hit_ready = kMaxTick;
            accepted = mem_.load(pendingOp_.addr, pendingOp_.refId,
                                 hintsFor(pendingOp_.refId), token,
                                 &hit_ready);
            if (accepted) {
                ++*loads_;
                if (hit_ready != kMaxTick)
                    ready = hit_ready;
                else
                    waiting = true;
            }
            break;
          }
          case OpKind::Store:
            accepted = mem_.store(pendingOp_.addr, pendingOp_.refId,
                                  hintsFor(pendingOp_.refId));
            if (accepted)
                ++*stores_;
            break;
          case OpKind::IndirectPrefetch:
            mem_.indirectPrefetch(pendingOp_.base, pendingOp_.elemSize,
                                  pendingOp_.addr, pendingOp_.refId);
            ++*indirectPrefetchOps_;
            break;
        }

        if (!accepted) {
            // Structural stall: keep the op pending, stop issuing.
            --entry.generation;
            ++*memStalls_;
            break;
        }

        entry.busy = true;
        entry.waitingOnLoad = waiting;
        entry.readyAt = ready;
        robTail_ = (robTail_ + 1) & robMask_;
        ++robCount_;
        havePending_ = false;
    }
}

bool
Cpu::done() const
{
    return traceDone_ && !havePending_ && robCount_ == 0;
}

Cpu::StallState
Cpu::stallState(Tick now) const
{
    StallState st;
    if (robCount_ == 0)
        return st; // Empty pipeline issues or finishes; not a stall.
    const RobEntry &head = robEntries_[robHead_];
    if (!head.waitingOnLoad && head.readyAt <= now)
        return st; // tick() would retire.
    if (robFull()) {
        // Blocked head, full ROB: tick() only counts a robFullStalls.
        st.stalled = true;
        st.robFullPath = true;
    } else if (traceDone_ && !havePending_) {
        // Blocked head, nothing left to issue: tick() is a pure wait.
        st.stalled = true;
    }
    // Otherwise tick() would fetch/issue (or retry a memory-rejected
    // op, whose per-attempt counters must accrue cycle by cycle) —
    // not skippable.
    if (st.stalled && !head.waitingOnLoad)
        st.readyTick = head.readyAt;
    return st;
}

void
Cpu::fastForward(uint64_t cycles, bool robFullPath)
{
    cycles_ += cycles;
    if (robFullPath)
        *robFullStalls_ += cycles;
}

} // namespace grp
