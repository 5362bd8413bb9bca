#include "harness/capture.hh"

#include <charconv>
#include <fstream>

#include "obs/atomic_file.hh"
#include "sim/logging.hh"

namespace grp
{

namespace
{

/** Table 0 of kind-1 containers, indexed by AccessTag. */
std::vector<std::vector<std::string>>
accessTables()
{
    return {{"computeRun", "load", "store", "indirectPrefetch"}};
}

/** Same large stream buffer the Tracer uses: one memcpy per record,
 *  a filesystem write every few thousand. */
constexpr size_t kStreamBufBytes = 256 * 1024;

} // namespace

CaptureTraceSource::CaptureTraceSource(TraceSource &inner,
                                       const std::string &path,
                                       const std::string &workload,
                                       uint64_t seed)
    : inner_(inner), publishPath_(path)
{
    const std::string tmp = path + ".tmp";
    out_ = std::fopen(tmp.c_str(), "wb");
    fatal_if(!out_, "cannot open capture file '%s'", tmp.c_str());
    iobuf_ = std::make_unique<char[]>(kStreamBufBytes);
    std::setvbuf(out_, iobuf_.get(), _IOFBF, kStreamBufBytes);
    writer_ = std::make_unique<obs::bintrace::Writer>(
        out_, obs::bintrace::StreamKind::Access, accessTables(),
        std::vector<std::pair<std::string, std::string>>{
            {"workload", workload},
            {"seed", std::to_string(seed)},
        });
}

CaptureTraceSource::~CaptureTraceSource()
{
    close();
}

void
CaptureTraceSource::flushComputeRun()
{
    if (!computeRun_)
        return;
    uint8_t payload[10];
    const size_t n = obs::bintrace::putVarint(payload, computeRun_);
    computeRun_ = 0;
    writer_->rawRecord(static_cast<uint8_t>(AccessTag::ComputeRun),
                       payload, n, ops_);
}

bool
CaptureTraceSource::next(TraceOp &op)
{
    if (!inner_.next(op)) {
        flushComputeRun();
        return false;
    }
    ++ops_;
    uint8_t payload[4 * 10];
    size_t n = 0;
    switch (op.kind) {
      case OpKind::Compute:
        // Defer: consecutive computes become one counted record.
        ++computeRun_;
        return true;
      case OpKind::Load:
      case OpKind::Store:
        flushComputeRun();
        n = obs::bintrace::putVarint(payload, op.refId);
        n += obs::bintrace::putVarint(payload + n, op.addr);
        writer_->rawRecord(op.kind == OpKind::Load
                               ? static_cast<uint8_t>(AccessTag::Load)
                               : static_cast<uint8_t>(AccessTag::Store),
                           payload, n, ops_);
        return true;
      case OpKind::IndirectPrefetch:
        flushComputeRun();
        n = obs::bintrace::putVarint(payload, op.refId);
        n += obs::bintrace::putVarint(payload + n, op.addr);
        n += obs::bintrace::putVarint(payload + n, op.base);
        n += obs::bintrace::putVarint(payload + n, op.elemSize);
        writer_->rawRecord(
            static_cast<uint8_t>(AccessTag::IndirectPrefetch), payload,
            n, ops_);
        return true;
    }
    return true;
}

void
CaptureTraceSource::close()
{
    if (!out_)
        return;
    flushComputeRun();
    writer_->finalize();
    writer_.reset();
    std::fclose(out_);
    out_ = nullptr;
    obs::publishTempFile(publishPath_ + ".tmp", publishPath_,
                         "capture");
}

ReplayTraceSource::ReplayTraceSource(const std::string &path)
{
    // Read straight into data_: captures are the size of the run, so
    // a stringstream detour would hold the file twice at peak.
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    fatal_if(!is, "cannot open capture file '%s'", path.c_str());
    const std::streamoff size = is.tellg();
    fatal_if(size < 0, "cannot size capture file '%s'", path.c_str());
    data_.resize(static_cast<size_t>(size));
    is.seekg(0);
    is.read(data_.data(), size);
    fatal_if(!is, "cannot read capture file '%s'", path.c_str());

    obs::bintrace::Container container;
    std::string error;
    fatal_if(
        !obs::bintrace::parseContainer(data_, container, &error),
        "'%s' is not a .grpbin capture: %s", path.c_str(),
        error.c_str());
    fatal_if(container.kind != obs::bintrace::StreamKind::Access,
             "'%s' is a lifecycle trace, not an access capture "
             "(inspect it with grptrace; --replay needs a --capture "
             "output)",
             path.c_str());
    fatal_if(!container.finalized,
             "capture '%s' is truncated or unfinalized (the recording "
             "run was killed mid-capture, or this is a stale .tmp "
             "file); refusing to replay a damaged stream",
             path.c_str());

    // The decoder below hard-codes the AccessTag numbering, so refuse
    // containers whose tag table disagrees (a newer writer).
    const std::vector<std::vector<std::string>> expected =
        accessTables();
    fatal_if(container.tables[0] != expected[0],
             "capture '%s' uses an unknown record-tag table (recorded "
             "by a newer writer?)",
             path.c_str());

    const auto workload = container.metaValue("workload");
    const auto seed = container.metaValue("seed");
    fatal_if(!workload || !seed,
             "capture '%s' lacks workload/seed meta", path.c_str());
    workload_ = *workload;
    // Digits only: strtoull would read "abc" as seed 0, which a
    // seed-0 run would then accept.
    const char *last = seed->data() + seed->size();
    const auto [end, ec] = std::from_chars(seed->data(), last, seed_);
    fatal_if(ec != std::errc() || end != last,
             "capture '%s' has a malformed seed '%s'", path.c_str(),
             seed->c_str());
    totalOps_ = container.finalKey;

    const uint8_t *base =
        reinterpret_cast<const uint8_t *>(data_.data());
    cursor_ = base + container.bodyOffset;
    end_ = base + container.footerOffset;
}

bool
ReplayTraceSource::next(TraceOp &op)
{
    if (pendingCompute_) {
        --pendingCompute_;
        ++decoded_;
        op = TraceOp::compute();
        return true;
    }
    while (cursor_ < end_) {
        const uint8_t tag = *cursor_++;
        if (tag == obs::bintrace::kFooterTag) {
            cursor_ = end_;
            return false;
        }
        if (tag == obs::bintrace::kCheckpointTag) {
            uint64_t key, records, warm, counts;
            bool ok = obs::bintrace::readVarint(cursor_, end_, key) &&
                      obs::bintrace::readVarint(cursor_, end_,
                                                records) &&
                      obs::bintrace::readVarint(cursor_, end_, warm) &&
                      obs::bintrace::readVarint(cursor_, end_, counts);
            for (uint64_t i = 0; ok && i < counts; ++i) {
                uint64_t count;
                ok = obs::bintrace::readVarint(cursor_, end_, count);
            }
            fatal_if(!ok, "capture corrupt at checkpoint after op %llu",
                     (unsigned long long)decoded_);
            continue;
        }
        uint64_t a = 0, b = 0, c = 0, d = 0;
        auto field = [&](uint64_t &value) {
            fatal_if(!obs::bintrace::readVarint(cursor_, end_, value),
                     "capture corrupt after op %llu",
                     (unsigned long long)decoded_);
        };
        switch (static_cast<AccessTag>(tag)) {
          case AccessTag::ComputeRun:
            field(a);
            fatal_if(!a, "capture has an empty compute run after op "
                         "%llu",
                     (unsigned long long)decoded_);
            pendingCompute_ = a - 1;
            ++decoded_;
            op = TraceOp::compute();
            return true;
          case AccessTag::Load:
          case AccessTag::Store:
            field(a);
            field(b);
            ++decoded_;
            op = static_cast<AccessTag>(tag) == AccessTag::Load
                     ? TraceOp::load(b, static_cast<RefId>(a))
                     : TraceOp::store(b, static_cast<RefId>(a));
            return true;
          case AccessTag::IndirectPrefetch:
            field(a);
            field(b);
            field(c);
            field(d);
            ++decoded_;
            op = TraceOp::indirect(c, static_cast<uint32_t>(d), b,
                                   static_cast<RefId>(a));
            return true;
        }
        fatal("capture has unknown record tag %u after op %llu",
              (unsigned)tag, (unsigned long long)decoded_);
    }
    return false;
}

} // namespace grp
