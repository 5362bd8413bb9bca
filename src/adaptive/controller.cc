#include "adaptive/controller.hh"

#include <string>

#include "obs/host_prof.hh"
#include "obs/trace.hh"

namespace grp
{
namespace adaptive
{

namespace
{

/** Region cap in blocks per Size ladder level (256 B / 1 KB / 4 KB
 *  with 64 B blocks). */
constexpr unsigned kSizeBlocks[kNumLevels] = {4, 16, 64};

/** Pointer-depth cap per Depth ladder level; the top level is
 *  "uncapped" so the configured recursion depth rules. */
constexpr uint8_t kDepthCaps[kNumLevels] = {1, 3, 255};

/** Level names used in stat counter names, per knob. */
const char *const kLevelNames[kNumKnobs][kNumLevels] = {
    {"256B", "1K", "4K"},     // Size
    {"Lru", "Mid", "Mru"},    // Insert
    {"Low", "Mid", "High"},   // Priority
    {"1", "3", "Max"},        // Depth
};

/** PascalCase knob names for camelCase counter names. */
const char *const kKnobPascal[kNumKnobs] = {"Size", "Insert",
                                            "Priority", "Depth"};

} // namespace

const char *
toString(Knob knob)
{
    switch (knob) {
      case Knob::Size:     return "size";
      case Knob::Insert:   return "insert";
      case Knob::Priority: return "priority";
      case Knob::Depth:    return "depth";
    }
    return "?";
}

constexpr std::array<obs::HintClass, 4>
    AdaptiveController::kManagedClasses;

bool
AdaptiveController::managesKnob(obs::HintClass cls, Knob knob)
{
    switch (knob) {
      case Knob::Size:
        return cls == obs::HintClass::Spatial;
      case Knob::Depth:
        return cls == obs::HintClass::Recursive;
      case Knob::Insert:
      case Knob::Priority:
        return cls == obs::HintClass::Spatial ||
               cls == obs::HintClass::Pointer ||
               cls == obs::HintClass::Recursive ||
               cls == obs::HintClass::Indirect;
    }
    return false;
}

AdaptiveController::AdaptiveController(const AdaptiveConfig &config,
                                       unsigned max_ptr_depth,
                                       Signals::Source source,
                                       obs::StatRegistry &registry)
    : config_(config), maxPtrDepth_(max_ptr_depth),
      signals_(std::move(source)), stats_("adaptive"),
      statReg_(stats_, registry)
{
    epochs_ = &stats_.counter("epochs");
    lowSignalEpochs_ = &stats_.counter("lowSignalClassEpochs");
    for (std::size_t k = 0; k < kNumKnobs; ++k) {
        transitions_[k] = &stats_.counter(std::string("transitions") +
                                          kKnobPascal[k]);
    }
    for (obs::HintClass cls : kManagedClasses) {
        const std::size_t c = static_cast<std::size_t>(cls);
        for (std::size_t k = 0; k < kNumKnobs; ++k) {
            if (!managesKnob(cls, static_cast<Knob>(k)))
                continue;
            for (unsigned lvl = 0; lvl < kNumLevels; ++lvl) {
                timeInState_[c][k][lvl] = &stats_.counter(
                    std::string(obs::toString(cls)) + kKnobPascal[k] +
                    kLevelNames[k][lvl] + "Epochs");
            }
        }
    }

    // Initial operating point: GrpVar equivalence (full regions, LRU
    // insertion, single priority tier, full depth).
    for (obs::HintClass cls : kManagedClasses) {
        const std::size_t c = static_cast<std::size_t>(cls);
        levels_[c][static_cast<std::size_t>(Knob::Size)] = 2;
        levels_[c][static_cast<std::size_t>(Knob::Insert)] = 0;
        levels_[c][static_cast<std::size_t>(Knob::Priority)] = 1;
        levels_[c][static_cast<std::size_t>(Knob::Depth)] = 2;
        for (std::size_t k = 0; k < kNumKnobs; ++k)
            if (managesKnob(cls, static_cast<Knob>(k)))
                applyLevel(cls, static_cast<Knob>(k), levels_[c][k]);
    }
}

void
AdaptiveController::applyLevel(obs::HintClass cls, Knob knob,
                               unsigned level)
{
    ClassKnobs &k = plane_.knobs(cls);
    switch (knob) {
      case Knob::Size:
        k.regionBlockCap = kSizeBlocks[level];
        break;
      case Knob::Insert:
        k.insert = static_cast<InsertPos>(level);
        break;
      case Knob::Priority:
        k.priority = static_cast<uint8_t>(level);
        break;
      case Knob::Depth:
        k.ptrDepthCap = kDepthCaps[level];
        break;
    }
}

void
AdaptiveController::setLevel(obs::HintClass cls, Knob knob,
                             unsigned level)
{
    const std::size_t c = static_cast<std::size_t>(cls);
    const std::size_t k = static_cast<std::size_t>(knob);
    if (levels_[c][k] == level)
        return;
    levels_[c][k] = level;
    applyLevel(cls, knob, level);
    ++*transitions_[k];
    GRP_TRACE(2, obs::TraceEvent::CtrlTransition, 0, cls,
              static_cast<int>(knob), static_cast<int64_t>(level));
}

void
AdaptiveController::raiseClass(obs::HintClass cls,
                               bool bandwidth_headroom)
{
    const std::size_t c = static_cast<std::size_t>(cls);
    const auto lvl = [&](Knob knob) {
        return levels_[c][static_cast<std::size_t>(knob)];
    };
    if (lvl(Knob::Insert) < kNumLevels - 1)
        setLevel(cls, Knob::Insert, lvl(Knob::Insert) + 1);
    if (lvl(Knob::Priority) < kNumLevels - 1)
        setLevel(cls, Knob::Priority, lvl(Knob::Priority) + 1);
    if (!bandwidth_headroom)
        return;
    // The bandwidth-spending ladders only grow with channel headroom.
    if (managesKnob(cls, Knob::Size) && lvl(Knob::Size) < kNumLevels - 1)
        setLevel(cls, Knob::Size, lvl(Knob::Size) + 1);
    if (managesKnob(cls, Knob::Depth) &&
        lvl(Knob::Depth) < kNumLevels - 1)
        setLevel(cls, Knob::Depth, lvl(Knob::Depth) + 1);
}

void
AdaptiveController::lowerClass(obs::HintClass cls)
{
    const std::size_t c = static_cast<std::size_t>(cls);
    for (std::size_t k = 0; k < kNumKnobs; ++k) {
        if (!managesKnob(cls, static_cast<Knob>(k)))
            continue;
        if (levels_[c][k] > 0)
            setLevel(cls, static_cast<Knob>(k), levels_[c][k] - 1);
    }
}

bool
AdaptiveController::onDeadline(Tick)
{
    GRP_HOST_SCOPE(1, Adaptive);
    ++*epochs_;
    const EpochSignals s = signals_.sample();
    const double pollution = s.pollutionRate();
    const double idle = s.idleFraction();
    const bool congested = idle < config_.idleLow &&
                           s.queueOccupancy() > config_.occupancyHigh;

    for (obs::HintClass cls : kManagedClasses) {
        const std::size_t c = static_cast<std::size_t>(cls);
        for (std::size_t k = 0; k < kNumKnobs; ++k)
            if (Counter *t = timeInState_[c][k][levels_[c][k]])
                ++*t;

        if (s.classFills(cls) < config_.minEpochFills) {
            // No signal: freeze the streaks rather than resetting
            // them, so sparse classes still accumulate evidence.
            ++*lowSignalEpochs_;
            continue;
        }

        const double acc = s.classAccuracy(cls);
        const bool poor = acc <= config_.accuracyLow ||
                          pollution > config_.pollutionHigh || congested;
        const bool good = !poor && acc >= config_.accuracyHigh;
        if (good) {
            ++raiseStreak_[c];
            lowerStreak_[c] = 0;
        } else if (poor) {
            ++lowerStreak_[c];
            raiseStreak_[c] = 0;
        } else {
            raiseStreak_[c] = 0;
            lowerStreak_[c] = 0;
        }

        if (raiseStreak_[c] >= config_.hysteresisEpochs) {
            raiseClass(cls, idle >= config_.idleHigh);
            raiseStreak_[c] = 0;
        } else if (lowerStreak_[c] >= config_.hysteresisEpochs) {
            lowerClass(cls);
            lowerStreak_[c] = 0;
        }
    }
    return true;
}

void
AdaptiveController::onWarmupEnd()
{
    stats_.reset();
    signals_.reprime();
}

uint64_t
AdaptiveController::totalTransitions() const
{
    uint64_t total = 0;
    for (const Counter *t : transitions_)
        total += t->value();
    return total;
}

void
AdaptiveController::writeReport(std::ostream &os) const
{
    os << "=== Adaptive controller ===\n";
    os << "epochs: " << epochs_->value()
       << "  low-signal class-epochs: " << lowSignalEpochs_->value()
       << "\n";
    os << "transitions:";
    for (std::size_t k = 0; k < kNumKnobs; ++k)
        os << " " << toString(static_cast<Knob>(k)) << "="
           << transitions_[k]->value();
    os << "\n";
    for (obs::HintClass cls : kManagedClasses) {
        const std::size_t c = static_cast<std::size_t>(cls);
        const ClassKnobs &k = plane_.knobs(cls);
        os << "  " << obs::toString(cls) << ": ";
        if (managesKnob(cls, Knob::Size))
            os << "region=" << k.regionBlockCap << "blk ";
        os << "insert=" << toString(k.insert)
           << " priority=" << unsigned(k.priority);
        if (managesKnob(cls, Knob::Depth)) {
            os << " depthCap=";
            if (k.ptrDepthCap == 255)
                os << maxPtrDepth_ << " (uncapped)";
            else
                os << unsigned(k.ptrDepthCap);
        }
        os << "\n";
        for (std::size_t kk = 0; kk < kNumKnobs; ++kk) {
            if (!managesKnob(cls, static_cast<Knob>(kk)))
                continue;
            os << "    " << toString(static_cast<Knob>(kk))
               << " epochs:";
            for (unsigned lvl = 0; lvl < kNumLevels; ++lvl)
                os << " " << kLevelNames[kk][lvl] << "="
                   << timeInState_[c][kk][lvl]->value();
            os << "\n";
        }
    }
}

} // namespace adaptive
} // namespace grp
