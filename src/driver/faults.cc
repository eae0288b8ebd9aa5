#include "driver/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "fabric/network.h"

namespace blockoptr {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kMaxDiurnalAmplitude = 0.95;

struct Preset {
  std::string_view name;
  FaultEvent event;
};

const std::vector<Preset>& PresetTable() {
  static const std::vector<Preset> kTable = [] {
    std::vector<Preset> table;
    auto add = [&table](std::string_view name, FaultKind kind,
                        auto&&... setters) {
      FaultEvent e;
      e.kind = kind;
      (setters(e), ...);
      table.push_back(Preset{name, e});
    };
    add("leader-crash", FaultKind::kLeaderCrash, [](FaultEvent& e) {
      e.at = 5;
      e.duration = 10;
    });
    add("node-crash", FaultKind::kNodeCrash, [](FaultEvent& e) {
      e.at = 5;
      e.duration = 10;
      e.node = 0;
    });
    add("endorser-outage", FaultKind::kEndorserOutage, [](FaultEvent& e) {
      e.at = 5;
      e.duration = 0;
      e.org = 2;
    });
    add("endorser-slow", FaultKind::kEndorserSlow, [](FaultEvent& e) {
      e.at = 5;
      e.duration = 20;
      e.org = 2;
      e.factor = 8;
    });
    add("burst", FaultKind::kBurst, [](FaultEvent& e) {
      e.at = 5;
      e.duration = 5;
      e.factor = 4;
    });
    add("diurnal", FaultKind::kDiurnal, [](FaultEvent& e) {
      e.at = 0;
      e.factor = 0.8;
      e.period = 20;
    });
    add("hotkey-shift", FaultKind::kSkewShift, [](FaultEvent& e) {
      e.at = 5;
      e.offset = 137;
    });
    return table;
  }();
  return kTable;
}

const FaultEvent* FindPreset(std::string_view name) {
  for (const auto& preset : PresetTable()) {
    if (preset.name == name) return &preset.event;
  }
  return nullptr;
}

// A finite number spanning all of `text`: "nan", "inf" and overflow to
// infinity are malformed, as for the CLI's numeric flags.
bool ParseNumber(std::string_view text, double* out) {
  std::string buf(text);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

// `v` as an int, if it is a whole number within int range: the cast of
// anything else is lossy or undefined.
bool ToInt(double v, int* out) {
  if (v != std::trunc(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Integral of the diurnal intensity 1 + amp*sin(2*pi*u/period) over
/// [0, s] — the cumulative expected-arrival count (relative to the base
/// rate) s seconds past the ramp onset.
double DiurnalIntegral(double s, double amp, double period) {
  double w = 2 * kPi / period;
  return s + amp / w * (1 - std::cos(w * s));
}

/// Compresses arrivals originally in [t0, t0+factor*dur) into
/// [t0, t0+dur): a factor-x send-rate burst. Later arrivals shift earlier
/// by the removed span. Monotone, so order is preserved; count trivially
/// so.
void ApplyBurst(Schedule& schedule, const FaultEvent& e) {
  double src_len = e.factor * e.duration;
  for (auto& req : schedule) {
    double x = req.send_time;
    if (x <= e.at) continue;
    if (x < e.at + src_len) {
      req.send_time = e.at + (x - e.at) / e.factor;
    } else {
      req.send_time = x - (src_len - e.duration);
    }
  }
}

/// Warps arrivals after the onset so the instantaneous rate follows
/// 1 + amp*sin(...): the warped time s solves DiurnalIntegral(s) = x
/// (bisection; the integrand is bounded in [1-amp, 1+amp], giving tight
/// deterministic brackets).
void ApplyDiurnal(Schedule& schedule, const FaultEvent& e) {
  double amp = std::clamp(e.factor, 0.0, kMaxDiurnalAmplitude);
  if (amp == 0) return;
  for (auto& req : schedule) {
    if (req.send_time <= e.at) continue;
    double target = req.send_time - e.at;
    double lo = target / (1 + amp);
    double hi = target / (1 - amp);
    for (int i = 0; i < 64; ++i) {
      double mid = 0.5 * (lo + hi);
      if (DiurnalIntegral(mid, amp, e.period) < target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    req.send_time = e.at + 0.5 * (lo + hi);
  }
}

/// "keyNNNNNN" (workload/synthetic.h naming) -> N, or -1.
int64_t SyntheticKeyIndex(const std::string& arg) {
  if (arg.size() != 9 || !StartsWith(arg, "key")) return -1;
  int64_t idx = 0;
  for (size_t i = 3; i < arg.size(); ++i) {
    if (arg[i] < '0' || arg[i] > '9') return -1;
    idx = idx * 10 + (arg[i] - '0');
  }
  return idx;
}

/// Rotates the synthetic-key arguments of every request sent at/after the
/// onset by `offset` modulo the schedule's observed key space — under
/// Zipfian skew this moves the hot set mid-run. RangeRead argument pairs
/// are skipped so [start, end) ranges stay well-formed.
void ApplySkewShift(Schedule& schedule, const FaultEvent& e) {
  int64_t key_space = 0;
  for (const auto& req : schedule) {
    for (const auto& arg : req.args) {
      key_space = std::max(key_space, SyntheticKeyIndex(arg) + 1);
    }
  }
  if (key_space <= 1) return;
  int64_t offset = ((e.offset % key_space) + key_space) % key_space;
  for (auto& req : schedule) {
    if (req.send_time < e.at || req.function == "RangeRead") continue;
    for (auto& arg : req.args) {
      int64_t idx = SyntheticKeyIndex(arg);
      if (idx < 0) continue;
      arg = "key" + ZeroPad(static_cast<uint64_t>((idx + offset) % key_space),
                            6);
    }
  }
}

std::string FormatParam(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Status ValidateEvent(const FaultEvent& e) {
  auto bad = [&e](const std::string& why) {
    return Status::InvalidArgument("fault '" + DescribeFault(e) + "': " + why);
  };
  for (double v : {e.at, e.duration, e.factor, e.period}) {
    if (!std::isfinite(v)) return bad("parameters must be finite");
  }
  if (e.at < 0) return bad("onset t must be >= 0");
  if (e.duration < 0) return bad("dur must be >= 0");
  switch (e.kind) {
    case FaultKind::kNodeCrash:
      if (e.node < 0) return bad("node must be >= 0");
      break;
    case FaultKind::kEndorserOutage:
    case FaultKind::kEndorserSlow:
      if (e.org < 1) return bad("org must be >= 1");
      if (e.kind == FaultKind::kEndorserSlow && e.factor <= 0) {
        return bad("factor must be > 0");
      }
      break;
    case FaultKind::kBurst:
      if (e.duration <= 0) return bad("burst needs dur > 0");
      if (e.factor <= 0) return bad("factor must be > 0");
      break;
    case FaultKind::kDiurnal:
      if (e.factor < 0 || e.factor > kMaxDiurnalAmplitude) {
        return bad("diurnal amplitude (factor) must be in [0, 0.95]");
      }
      if (e.period <= 0) return bad("period must be > 0");
      break;
    default:
      break;
  }
  return Status::OK();
}

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeaderCrash:
      return "leader-crash";
    case FaultKind::kNodeCrash:
      return "node-crash";
    case FaultKind::kEndorserOutage:
      return "endorser-outage";
    case FaultKind::kEndorserSlow:
      return "endorser-slow";
    case FaultKind::kBurst:
      return "burst";
    case FaultKind::kDiurnal:
      return "diurnal";
    case FaultKind::kSkewShift:
      return "hotkey-shift";
  }
  return "unknown";
}

std::string DescribeFault(const FaultEvent& event) {
  std::string out(FaultKindName(event.kind));
  out += "@t=" + FormatParam(event.at);
  switch (event.kind) {
    case FaultKind::kLeaderCrash:
      out += ",dur=" + FormatParam(event.duration);
      break;
    case FaultKind::kNodeCrash:
      out += ",dur=" + FormatParam(event.duration) +
             ",node=" + std::to_string(event.node);
      break;
    case FaultKind::kEndorserOutage:
      out += ",dur=" + FormatParam(event.duration) +
             ",org=" + std::to_string(event.org);
      break;
    case FaultKind::kEndorserSlow:
      out += ",dur=" + FormatParam(event.duration) +
             ",org=" + std::to_string(event.org) +
             ",factor=" + FormatParam(event.factor);
      break;
    case FaultKind::kBurst:
      out += ",dur=" + FormatParam(event.duration) +
             ",factor=" + FormatParam(event.factor);
      break;
    case FaultKind::kDiurnal:
      out += ",factor=" + FormatParam(event.factor) +
             ",period=" + FormatParam(event.period);
      break;
    case FaultKind::kSkewShift:
      out += ",offset=" + std::to_string(event.offset);
      break;
  }
  return out;
}

std::vector<std::string> FaultPresetNames() {
  std::vector<std::string> names;
  names.reserve(PresetTable().size());
  for (const auto& preset : PresetTable()) names.emplace_back(preset.name);
  return names;
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  for (const auto& part : Split(spec, ';')) {
    std::string_view text = Trim(part);
    if (text.empty()) continue;
    size_t at_pos = text.find('@');
    std::string_view name = Trim(text.substr(0, at_pos));
    const FaultEvent* preset = FindPreset(name);
    if (preset == nullptr) {
      return Status::InvalidArgument(
          "unknown fault '" + std::string(name) +
          "' (presets: " + Join(FaultPresetNames(), ", ") + ")");
    }
    FaultEvent event = *preset;
    if (at_pos != std::string_view::npos) {
      for (const auto& kv : Split(text.substr(at_pos + 1), ',')) {
        std::string_view entry = Trim(kv);
        if (entry.empty()) continue;
        size_t eq = entry.find('=');
        if (eq == std::string_view::npos) {
          return Status::InvalidArgument("fault parameter '" +
                                         std::string(entry) +
                                         "' is not key=value");
        }
        std::string_view key = Trim(entry.substr(0, eq));
        double value = 0;
        if (!ParseNumber(Trim(entry.substr(eq + 1)), &value)) {
          return Status::InvalidArgument("fault parameter '" +
                                         std::string(entry) +
                                         "' has a malformed value");
        }
        auto not_integer = [entry] {
          return Status::InvalidArgument("fault parameter '" +
                                         std::string(entry) +
                                         "' must be an integer");
        };
        if (key == "t") {
          event.at = value;
        } else if (key == "dur") {
          event.duration = value;
        } else if (key == "node") {
          if (!ToInt(value, &event.node)) return not_integer();
        } else if (key == "org") {
          if (!ToInt(value, &event.org)) return not_integer();
        } else if (key == "factor") {
          event.factor = value;
        } else if (key == "period") {
          event.period = value;
        } else if (key == "offset") {
          if (!ToInt(value, &event.offset)) return not_integer();
        } else {
          return Status::InvalidArgument(
              "unknown fault parameter '" + std::string(key) +
              "' (known: t, dur, node, org, factor, period, offset)");
        }
      }
    }
    BLOCKOPTR_RETURN_NOT_OK(ValidateEvent(event));
    plan.events.push_back(event);
  }
  if (plan.events.empty()) {
    return Status::InvalidArgument("empty fault spec");
  }
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

void ApplyArrivalFaults(Schedule& schedule, const FaultPlan& plan) {
  if (schedule.empty()) return;
  bool touched = false;
  for (const auto& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kBurst:
        ApplyBurst(schedule, event);
        touched = true;
        break;
      case FaultKind::kDiurnal:
        ApplyDiurnal(schedule, event);
        touched = true;
        break;
      case FaultKind::kSkewShift:
        ApplySkewShift(schedule, event);
        touched = true;
        break;
      default:
        break;
    }
  }
  if (touched) NormalizeSchedule(schedule);
}

FaultInjector::FaultInjector(Simulator* sim, FabricNetwork* network,
                             FaultPlan plan)
    : sim_(sim), network_(network), plan_(std::move(plan)) {}

void FaultInjector::Arm() {
  windows_.clear();
  windows_.reserve(plan_.events.size());
  for (const FaultEvent& e : plan_.events) {
    double end = e.duration > 0 ? e.at + e.duration : kOpenEnded;
    switch (e.kind) {
      case FaultKind::kLeaderCrash: {
        windows_.push_back(
            {std::string(FaultKindName(e.kind)), e.at, end});
        size_t w = windows_.size() - 1;
        sim_->ScheduleAt(e.at, [this, e, w]() {
          RaftCluster& raft = network_->orderer().mutable_raft();
          // Resolve the acting leader at fire time; before any election
          // has concluded, hit node 0 (a deterministic stand-in).
          int victim = raft.LeaderId();
          if (victim < 0) victim = 0;
          windows_[w].name =
              "leader-crash(node" + std::to_string(victim) + ")";
          raft.StopNode(victim);
          if (e.duration > 0) {
            sim_->ScheduleAfter(e.duration, [this, victim]() {
              network_->orderer().mutable_raft().RestartNode(victim);
            });
          }
        });
        break;
      }
      case FaultKind::kNodeCrash: {
        windows_.push_back({"node-crash(node" + std::to_string(e.node) + ")",
                            e.at, end});
        sim_->ScheduleAt(e.at, [this, e]() {
          RaftCluster& raft = network_->orderer().mutable_raft();
          if (e.node >= raft.num_nodes()) return;
          raft.StopNode(e.node);
          if (e.duration > 0) {
            sim_->ScheduleAfter(e.duration, [this, e]() {
              network_->orderer().mutable_raft().RestartNode(e.node);
            });
          }
        });
        break;
      }
      case FaultKind::kEndorserOutage: {
        windows_.push_back(
            {"endorser-outage(Org" + std::to_string(e.org) + ")", e.at, end});
        sim_->ScheduleAt(e.at, [this, e]() {
          network_->SetEndorserOutage(e.org, true);
          if (e.duration > 0) {
            sim_->ScheduleAfter(e.duration, [this, e]() {
              network_->SetEndorserOutage(e.org, false);
            });
          }
        });
        break;
      }
      case FaultKind::kEndorserSlow: {
        windows_.push_back(
            {"endorser-slow(Org" + std::to_string(e.org) + ")", e.at, end});
        sim_->ScheduleAt(e.at, [this, e]() {
          network_->SetEndorserSlowdown(e.org, e.factor);
          if (e.duration > 0) {
            sim_->ScheduleAfter(e.duration, [this, e]() {
              network_->SetEndorserSlowdown(e.org, 1.0);
            });
          }
        });
        break;
      }
      // Arrival-process faults act on the schedule before the run
      // (ApplyArrivalFaults); only their windows are recorded here.
      case FaultKind::kBurst:
      case FaultKind::kDiurnal:
      case FaultKind::kSkewShift:
        windows_.push_back(
            {std::string(FaultKindName(e.kind)), e.at, end});
        break;
    }
  }
}

void FaultInjector::FinalizeWindows(double end_time) {
  for (auto& w : windows_) {
    if (w.end == kOpenEnded || w.end > end_time) w.end = end_time;
  }
}

}  // namespace blockoptr
