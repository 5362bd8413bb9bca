#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "harness/suite.hh"
#include "sim/stats.hh"

namespace grpbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailPercentile
tailPercentile(std::vector<double> samples, size_t beyond)
{
    TailPercentile tail;
    tail.samples = samples.size();
    if (samples.size() <= beyond)
        return tail;
    std::sort(samples.begin(), samples.end());
    const size_t rank = samples.size() - beyond; // 1-based
    tail.valid = true;
    tail.value = samples[rank - 1];
    tail.percentile = 100.0 * static_cast<double>(rank) /
                      static_cast<double>(samples.size());
    return tail;
}

double
simMinstPerSec(uint64_t instructions, double wall_s, double setup_s)
{
    const double loop_s = wall_s - setup_s;
    if (loop_s <= 0.0)
        return 0.0;
    return static_cast<double>(instructions) / loop_s / 1e6;
}

const std::vector<PaperRow> &
table1()
{
    // Table 1 of the paper; bench/tab01_summary.cc prints the same
    // constants beside the simulated columns (the tests check that
    // the two copies agree).
    static const std::vector<PaperRow> rows = {
        {"stride", 1.147, 1.09, 23.99},
        {"srp", 1.226, 2.80, 18.75},
        {"grp-fix", 1.216, 1.62, 19.42},
        {"grp-var", 1.212, 1.23, 19.69},
    };
    return rows;
}

Summaries
summarize(const std::vector<grp::RunResult> &runs,
          const std::vector<std::string> &instances,
          const std::vector<std::string> &suite)
{
    using grp::Perfection;
    using grp::PrefetchScheme;
    std::map<std::string, const grp::RunResult *> base, perfect;
    for (size_t i = 0; i < runs.size(); ++i) {
        const grp::RunResult &run = runs[i];
        if (run.perfection == Perfection::PerfectL2)
            perfect[instances[i]] = &run;
        else if (run.perfection == Perfection::None &&
                 run.scheme == PrefetchScheme::None)
            base[instances[i]] = &run;
    }
    struct Columns
    {
        std::vector<double> speedups, traffics, perfectRatios;
    };
    std::map<std::string, Columns> columns;
    for (size_t i = 0; i < runs.size(); ++i) {
        const grp::RunResult &run = runs[i];
        if (run.perfection != Perfection::None ||
            run.scheme == PrefetchScheme::None)
            continue;
        if (std::find(suite.begin(), suite.end(), run.workload) ==
            suite.end())
            continue;
        const auto b = base.find(instances[i]);
        const auto p = perfect.find(instances[i]);
        if (b == base.end() || p == perfect.end() ||
            p->second->ipc <= 0.0)
            continue;
        Columns &c = columns[grp::toString(run.scheme)];
        c.speedups.push_back(grp::speedup(run, *b->second));
        c.traffics.push_back(grp::trafficRatio(run, *b->second));
        c.perfectRatios.push_back(run.ipc / p->second->ipc);
    }
    Summaries sims;
    for (const auto &[scheme, c] : columns) {
        SchemeSummary &s = sims[scheme];
        s.speedup = grp::geometricMean(c.speedups);
        s.traffic = grp::geometricMean(c.traffics);
        s.gapPct = 100.0 * (1.0 - grp::geometricMean(c.perfectRatios));
    }
    return sims;
}

PaperError
paperError(const Summaries &sims)
{
    PaperError err;
    for (const PaperRow &row : table1()) {
        const auto it = sims.find(row.scheme);
        if (it == sims.end())
            continue;
        err.speedupPp += 100.0 * std::fabs(it->second.speedup -
                                           row.speedup);
        err.trafficPp += 100.0 * std::fabs(it->second.traffic -
                                           row.traffic);
        err.gapPp += std::fabs(it->second.gapPct - row.gapPct);
        ++err.schemes;
    }
    if (err.schemes) {
        const double n = static_cast<double>(err.schemes);
        err.speedupPp /= n;
        err.trafficPp /= n;
        err.gapPp /= n;
    }
    return err;
}

std::vector<ShapeCheck>
paperShapes(const Summaries &sims)
{
    // Orderings Table 1 of the paper shows (EXPERIMENTS.md discusses
    // each). SRP ahead of stride is one the reproduction is known to
    // miss; it stays in the list so fixing it shows.
    struct Ordering
    {
        std::string claim;
        std::vector<std::string> needs;
        std::function<bool(const Summaries &)> holds;
    };
    const auto faster = [](std::string scheme) {
        return Ordering{scheme + " speedup > 1", {scheme},
                        [scheme](const Summaries &s) {
                            return s.at(scheme).speedup > 1.0;
                        }};
    };
    const auto less_traffic = [](std::string lo, std::string hi) {
        return Ordering{lo + " traffic < " + hi + " traffic", {lo, hi},
                        [lo, hi](const Summaries &s) {
                            return s.at(lo).traffic < s.at(hi).traffic;
                        }};
    };
    const std::vector<Ordering> orderings = {
        faster("stride"),
        faster("srp"),
        faster("grp-fix"),
        faster("grp-var"),
        less_traffic("grp-var", "grp-fix"),
        less_traffic("grp-fix", "srp"),
        less_traffic("grp-var", "srp"),
        less_traffic("stride", "srp"),
        {"srp speedup > stride speedup",
         {"srp", "stride"},
         [](const Summaries &s) {
             return s.at("srp").speedup > s.at("stride").speedup;
         }},
    };
    std::vector<ShapeCheck> checks;
    for (const Ordering &o : orderings) {
        const bool applicable =
            std::all_of(o.needs.begin(), o.needs.end(),
                        [&sims](const std::string &scheme) {
                            return sims.count(scheme) != 0;
                        });
        if (applicable)
            checks.push_back({o.claim, o.holds(sims)});
    }
    return checks;
}

double
shapeFrac(const std::vector<ShapeCheck> &checks)
{
    if (checks.empty())
        return 0.0;
    const auto held = std::count_if(
        checks.begin(), checks.end(),
        [](const ShapeCheck &c) { return c.holds; });
    return static_cast<double>(held) /
           static_cast<double>(checks.size());
}

namespace
{

struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
};

} // namespace

uint64_t
statsDigest(const grp::obs::StatSnapshot &stats)
{
    Fnv1a fnv;
    for (const auto &[name, value] : stats.counters) {
        fnv.str(name);
        fnv.u64(value);
    }
    for (const auto &[name, d] : stats.distributions) {
        fnv.str(name);
        fnv.u64(d.samples);
        fnv.u64(d.sum);
        fnv.f64(d.mean);
        fnv.u64(d.maxValue);
        fnv.u64(d.p50);
        fnv.u64(d.p90);
        fnv.u64(d.p99);
    }
    return fnv.h;
}

uint64_t
digestOfDigests(const std::vector<uint64_t> &digests)
{
    Fnv1a fnv;
    for (uint64_t d : digests)
        fnv.u64(d);
    return fnv.h;
}

} // namespace grpbench
