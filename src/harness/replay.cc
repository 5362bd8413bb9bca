#include "harness/replay.hh"

#include <algorithm>

#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{

namespace
{

constexpr uint64_t kMaxRun = UINT16_MAX; ///< Record count field.

} // namespace

uint32_t
PackedOpStream::opsIn(const Record &record)
{
    return record.computeBefore + (record.kind != OpKind::Compute);
}

void
PackedOpStream::push(const Record &record)
{
    if (records_ == chunks_.size() * kChunkRecords) {
        chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
        starts_.push_back({ops_, side_.size()});
    }
    chunks_.back()[records_++ % kChunkRecords] = record;
    ops_ += opsIn(record);
}

void
PackedOpStream::append(const TraceOp &op)
{
    if (op.kind == OpKind::Compute) {
        if (++openRun_ == kMaxRun)
            finish();
        return;
    }
    // Push first: a record that opens a chunk indexes the side entries
    // before its own.
    push({op.addr, op.refId, static_cast<uint16_t>(openRun_), op.kind});
    if (op.kind == OpKind::IndirectPrefetch)
        side_.push_back({op.base, op.elemSize});
    openRun_ = 0;
}

void
PackedOpStream::finish()
{
    if (openRun_ != 0)
        push({0, kInvalidRefId, static_cast<uint16_t>(openRun_),
              OpKind::Compute});
    openRun_ = 0;
}

uint64_t
PackedOpStream::bytes() const
{
    return chunks_.size() * kChunkRecords * sizeof(Record) +
           side_.capacity() * sizeof(Side);
}

void
PackedOpStream::seek(Cursor &cur, uint64_t pos) const
{
    // The last chunk starting at or before pos, then whole records.
    const size_t chunk =
        std::upper_bound(starts_.begin(), starts_.end(), pos,
                         [](uint64_t p, const ChunkStart &start) {
                             return p < start.op;
                         }) -
        starts_.begin();
    cur = Cursor{};
    if (chunk != 0) {
        cur.pos = starts_[chunk - 1].op;
        cur.record = (chunk - 1) * kChunkRecords;
        cur.side = starts_[chunk - 1].side;
    }
    for (; cur.record < records_; ++cur.record) {
        const Record &r = record(cur.record);
        if (pos - cur.pos < opsIn(r))
            break;
        cur.pos += opsIn(r);
        cur.side += r.kind == OpKind::IndirectPrefetch;
    }
    cur.done = static_cast<uint32_t>(pos - cur.pos);
    cur.pos = pos;
}

size_t
PackedOpStream::expand(Cursor &cur, TraceOp *out, size_t max) const
{
    size_t n = 0;
    for (; n < max && cur.record < records_; ++cur.record, cur.done = 0) {
        const Record &r = record(cur.record);
        if (cur.done < r.computeBefore) {
            const size_t run =
                std::min<size_t>(max - n, r.computeBefore - cur.done);
            std::fill_n(out + n, run, TraceOp::compute());
            n += run;
            cur.done += run;
        }
        if (r.kind == OpKind::Compute) {
            if (cur.done < r.computeBefore)
                break; // out is full mid-run.
            continue;
        }
        if (n == max)
            break; // The memory op opens the next expansion.
        out[n] = TraceOp{r.kind, r.refId, r.addr};
        if (r.kind == OpKind::IndirectPrefetch) {
            out[n].base = side_[cur.side].base;
            out[n].elemSize = side_[cur.side++].elemSize;
        }
        ++n;
    }
    cur.pos += n;
    return n;
}

/** A per-job cursor over a shared recording: expands the packed
 *  stream into its own L1-sized buffer, one lock per batch. */
class SweepRecording::Reader : public TraceSource
{
  public:
    explicit Reader(std::shared_ptr<SweepRecording> rec)
        : rec_(std::move(rec))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ == len_ && !refill())
            return false; // End of the recorded stream.
        op = buf_[pos_++];
        return true;
    }

    size_t
    nextBatch(const TraceOp **ops) override
    {
        if (pos_ == len_ && !refill())
            return 0;
        *ops = buf_ + pos_;
        const size_t run = len_ - pos_;
        pos_ = len_;
        return run;
    }

  private:
    bool
    refill()
    {
        len_ = rec_->read(cursor_, cursor_.pos, buf_);
        pos_ = 0;
        return len_ != 0;
    }
    std::shared_ptr<SweepRecording> rec_;
    PackedOpStream::Cursor cursor_;
    TraceOp buf_[kBatchOps];
    size_t pos_ = 0;
    size_t len_ = 0;
};

SweepRecording::SweepRecording(std::string workload, uint64_t seed,
                               uint64_t l2_bytes)
    : workload_(std::move(workload)), seed_(seed), l2Bytes_(l2_bytes)
{
}

void
SweepRecording::ensureBuilt()
{
    std::call_once(buildOnce_, [this] {
        prog_.emplace(makeWorkload(workload_)->build(fmem_, seed_));
        // Only the policy-independent IR transform runs here; the
        // per-policy analyses build lazily in policyHints(), so the
        // program — and the op stream interpreted from it — is
        // shared by every policy in the sweep.
        indirect_ = HintGenerator::transform(*prog_);
        source_ = makeTraceSource(*prog_, fmem_, seed_);
    });
}

SweepRecording::PolicyHints &
SweepRecording::policyHints(CompilerPolicy policy)
{
    ensureBuilt();
    PolicyHints *entry;
    {
        std::lock_guard<std::mutex> lock(hintsMu_);
        entry = &hintsByPolicy_[static_cast<int>(policy)];
    }
    std::call_once(entry->once, [this, entry, policy] {
        HintGenerator generator(policy, l2Bytes_);
        entry->stats =
            generator.analyze(*prog_, entry->table, indirect_);
    });
    return *entry;
}

FunctionalMemory &
SweepRecording::memory()
{
    ensureBuilt();
    return fmem_;
}

const HintTable &
SweepRecording::hints(CompilerPolicy policy)
{
    return policyHints(policy).table;
}

const HintStats &
SweepRecording::hintStats(CompilerPolicy policy)
{
    return policyHints(policy).stats;
}

std::unique_ptr<TraceSource>
SweepRecording::makeReader(std::shared_ptr<SweepRecording> self)
{
    return std::make_unique<Reader>(std::move(self));
}

size_t
SweepRecording::read(PackedOpStream::Cursor &cur, uint64_t begin,
                     TraceOp *out)
{
    ensureBuilt();
    std::lock_guard<std::mutex> lock(mu_);
    // Whoever asks first generates for everyone: the interpreter runs
    // once per recording however many readers replay it.
    while (stream_.ops() < begin + kBatchOps && !exhausted_) {
        const TraceOp *batch = nullptr;
        const size_t n = source_->nextBatch(&batch);
        for (size_t i = 0; i < n; ++i)
            stream_.append(batch[i]);
        if (n == 0) {
            stream_.finish();
            exhausted_ = true;
        }
    }
    if (begin >= stream_.ops())
        return 0;
    if (cur.pos != begin)
        stream_.seek(cur, begin);
    return stream_.expand(cur, out, kBatchOps);
}

size_t
SweepRecording::fetchSpan(uint64_t begin, const TraceOp **ops)
{
    thread_local TraceOp span[kBatchOps];
    *ops = span;
    return read(spanCursor_, begin, span);
}

uint64_t
SweepRecording::opsRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stream_.ops();
}

} // namespace grp
