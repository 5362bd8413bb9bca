/**
 * @file
 * Per-layer host-time kernels for the traced run. Each kernel drives
 * one module through its public functions with a workload's own
 * access stream, so ns per operation is measured where the work
 * happens without instrumenting the simulator:
 *
 *  - workloads: TraceSource::nextBatch over a freshly built program,
 *  - harness: SweepRecording::fetchSpan over the recorded stream,
 *  - mem: Cache::access/insert with L1 then L2 geometry,
 *  - dram: DramBackend::serve on the legacy model, and
 *    serve/tick/popCompleted on the ddr4-2400 timing model,
 *  - prefetch: RegionQueue::noteSpatialMiss/dequeue churn.
 */

#ifndef GRPBENCH_KERNELS_HH
#define GRPBENCH_KERNELS_HH

#include <cstdint>
#include <string>

#include "spans.hh"

namespace grpbench
{

/** Operation counts and host seconds per kernel. */
struct KernelTimes
{
    uint64_t interpOps = 0;
    double interpS = 0.0;
    uint64_t replayOps = 0;
    double replayS = 0.0;
    uint64_t l1Accesses = 0;
    double l1S = 0.0;
    uint64_t l2Accesses = 0;
    double l2S = 0.0;
    uint64_t legacyReqs = 0;
    double legacyS = 0.0;
    uint64_t ddr4Reqs = 0;
    double ddr4S = 0.0;
    uint64_t queueOps = 0;
    double queueS = 0.0;

    void add(const KernelTimes &other);
};

/**
 * Run every kernel on the first @p ops ops of (@p workload, @p seed)'s
 * access stream, recording one span per kernel under @p parent.
 * Returns false (with @p error set) when a kernel loses requests.
 */
bool runKernels(const std::string &workload, uint64_t seed,
                uint64_t ops, SpanRecorder &spans, int64_t parent,
                KernelTimes &times, std::string &error);

} // namespace grpbench

#endif // GRPBENCH_KERNELS_HH
