#include "kernels.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "compiler/hint_generator.hh"
#include "harness/replay.hh"
#include "mem/cache.hh"
#include "mem/dram_backend/factory.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grpbench
{

void
KernelTimes::add(const KernelTimes &o)
{
    interpOps += o.interpOps;
    interpS += o.interpS;
    replayOps += o.replayOps;
    replayS += o.replayS;
    l1Accesses += o.l1Accesses;
    l1S += o.l1S;
    l2Accesses += o.l2Accesses;
    l2S += o.l2S;
    legacyReqs += o.legacyReqs;
    legacyS += o.legacyS;
    ddr4Reqs += o.ddr4Reqs;
    ddr4S += o.ddr4S;
    queueOps += o.queueOps;
    queueS += o.queueS;
}

namespace
{

/** Seconds a span took, read back from its own clock. */
class Timed
{
  public:
    Timed(SpanRecorder &spans, const char *name, int64_t parent)
        : scope_(spans, name, parent), start_(nowNs())
    {
    }
    double seconds() const { return secondsBetween(start_, nowNs()); }

  private:
    SpanRecorder::Scope scope_;
    int64_t start_;
};

/** Keeps kernel reads observable to the optimiser. */
volatile uint64_t g_sink = 0;

struct Access
{
    grp::Addr addr;
    bool write;
};

} // namespace

bool
runKernels(const std::string &workload, uint64_t seed, uint64_t ops,
           SpanRecorder &spans, int64_t parent, KernelTimes &times,
           std::string &error)
{
    const grp::SimConfig config;
    KernelTimes t;

    // workloads: the decoded interpreter over a fresh build.
    {
        grp::FunctionalMemory fmem;
        grp::Program prog =
            grp::makeWorkload(workload)->build(fmem, seed);
        grp::HintGenerator::transform(prog);
        auto source = grp::makeTraceSource(prog, fmem, seed);
        Timed timed(spans, "TraceSource::nextBatch", parent);
        uint64_t sum = 0;
        while (t.interpOps < ops) {
            const grp::TraceOp *batch = nullptr;
            const size_t n = source->nextBatch(&batch);
            if (n == 0)
                break;
            for (size_t i = 0; i < n; ++i)
                sum += batch[i].addr;
            t.interpOps += n;
        }
        t.interpS = timed.seconds();
        g_sink = sum;
    }

    // harness: borrow the recorded stream span by span. The first
    // pass records (interprets) it; the timed second pass replays.
    std::vector<Access> demand;
    {
        grp::SweepRecording rec(workload, seed, config.l2.sizeBytes);
        const grp::TraceOp *span = nullptr;
        for (uint64_t pos = 0; pos < ops;) {
            const size_t n = rec.fetchSpan(pos, &span);
            if (n == 0)
                break;
            pos += n;
        }
        const uint64_t recorded = std::min(ops, rec.opsRecorded());
        Timed timed(spans, "SweepRecording::fetchSpan", parent);
        uint64_t loads = 0;
        for (uint64_t pos = 0; pos < recorded;) {
            const size_t n = rec.fetchSpan(pos, &span);
            if (n == 0)
                break;
            for (size_t i = 0; i < n; ++i)
                loads += span[i].kind == grp::OpKind::Load;
            pos += n;
        }
        t.replayOps = recorded;
        t.replayS = timed.seconds();
        g_sink = loads;
        demand.reserve(loads);
        for (uint64_t pos = 0; pos < recorded;) {
            const size_t n = rec.fetchSpan(pos, &span);
            for (size_t i = 0; i < n; ++i) {
                const grp::OpKind kind = span[i].kind;
                if (kind == grp::OpKind::Load ||
                    kind == grp::OpKind::Store)
                    demand.push_back({span[i].addr,
                                      kind == grp::OpKind::Store});
            }
            pos += n;
        }
    }

    // mem: the demand stream through an L1, its misses through an L2.
    grp::obs::StatRegistry registry;
    std::vector<Access> l1_misses, l2_misses;
    {
        grp::Cache l1(config.l1d, "benchL1", true, registry);
        Timed timed(spans, "Cache::access/insert L1", parent);
        for (const Access &a : demand) {
            if (!l1.access(a.addr, a.write).hit) {
                l1.insert(a.addr, false, a.write);
                l1_misses.push_back(a);
            }
        }
        t.l1Accesses = demand.size();
        t.l1S = timed.seconds();
    }
    {
        grp::Cache l2(config.l2, "benchL2", true, registry);
        Timed timed(spans, "Cache::access/insert L2", parent);
        for (const Access &a : l1_misses) {
            if (!l2.access(a.addr, a.write).hit) {
                l2.insert(a.addr, false, a.write);
                l2_misses.push_back(a);
            }
        }
        t.l2Accesses = l1_misses.size();
        t.l2S = timed.seconds();
    }

    // dram: the L2-miss stream, each request issued when its
    // channel frees up (legacy) or its command queue has room (ddr4).
    grp::DramConfig legacy_config = config.dram;
    legacy_config.backend = "legacy";
    auto legacy = grp::makeDramBackend(legacy_config, registry);
    {
        Timed timed(spans, "DramBackend::serve legacy", parent);
        for (const Access &a : l2_misses) {
            const unsigned ch = legacy->channelOf(a.addr);
            legacy->serve(a.addr, legacy->channelBusyUntil(ch),
                          grp::ReqClass::Demand);
        }
        t.legacyReqs = l2_misses.size();
        t.legacyS = timed.seconds();
    }
    {
        grp::DramConfig ddr4_config = config.dram;
        ddr4_config.backend = "ddr4-2400";
        auto ddr4 = grp::makeDramBackend(ddr4_config, registry);
        Timed timed(spans, "DramBackend::serve/tick/popCompleted ddr4",
                    parent);
        grp::Tick now = 0;
        uint64_t done = 0;
        const auto step = [&] {
            ddr4->tick(now);
            while (ddr4->popCompleted(now))
                ++done;
            ++now;
        };
        for (const Access &a : l2_misses) {
            const unsigned ch = ddr4->channelOf(a.addr);
            while (!ddr4->canAccept(ch, now))
                step();
            ddr4->serve(a.addr, now, grp::ReqClass::Demand);
            step();
        }
        // Drain; a backend that never completes a request is a bug
        // the kernel must report rather than spin on.
        const grp::Tick limit = now + 1'000'000;
        while (done < l2_misses.size() && now < limit)
            step();
        t.ddr4Reqs = l2_misses.size();
        t.ddr4S = timed.seconds();
        if (done != l2_misses.size()) {
            error = workload + ": ddr4 kernel completed " +
                    std::to_string(done) + " of " +
                    std::to_string(l2_misses.size()) + " requests";
            return false;
        }
    }

    // prefetch: every L2 miss opens or updates a full-region entry,
    // then its channel drains up to four candidates.
    {
        grp::RegionQueue queue(config.region.queueEntries, true, true,
                               registry);
        queue.setPresenceTest([](grp::Addr) { return false; });
        Timed timed(spans, "RegionQueue::noteSpatialMiss/dequeue",
                    parent);
        uint64_t op_count = 0;
        for (const Access &a : l2_misses) {
            queue.noteSpatialMiss(a.addr, grp::kBlocksPerRegion, 0,
                                  grp::kInvalidRefId);
            ++op_count;
            const unsigned ch = legacy->channelOf(a.addr);
            for (int i = 0; i < 4; ++i) {
                ++op_count;
                if (!queue.dequeue(*legacy, ch))
                    break;
            }
        }
        t.queueOps = op_count;
        t.queueS = timed.seconds();
    }

    times.add(t);
    return true;
}

} // namespace grpbench
