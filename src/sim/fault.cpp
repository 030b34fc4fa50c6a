#include "sim/fault.hpp"

#include <cmath>

#include "support/parse.hpp"

namespace arrowdq {

const char* FaultSpec::name() const {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kJitter: return "jitter";
    case FaultKind::kSpike: return "spike";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kChurn: return "churn";
    case FaultKind::kChaos: return "chaos";
  }
  return "unknown";
}

FaultSpec FaultSpec::without_crash() const {
  // Full-struct copy first, then zero the topology-fault schedules: a new
  // FaultSpec field is kept by default and must be *deliberately* stripped
  // here (tests/fault_test.cpp pins every field's fate).
  FaultSpec s = *this;
  s.crash_count = 0;
  s.partition_count = 0;
  s.churn_rate = 0.0;
  s.churn_leaf_only = 0;
  if (!s.message_faults()) s.kind = FaultKind::kNone;
  return s;
}

FaultSpec FaultSpec::loss(double p) {
  FaultSpec s;
  s.kind = FaultKind::kLoss;
  s.loss_prob = p;
  return s;
}

FaultSpec FaultSpec::duplicate(double p) {
  FaultSpec s;
  s.kind = FaultKind::kDuplicate;
  s.dup_prob = p;
  return s;
}

FaultSpec FaultSpec::jitter(double p, double max_units) {
  FaultSpec s;
  s.kind = FaultKind::kJitter;
  s.jitter_prob = p;
  s.jitter_max_units = max_units;
  return s;
}

FaultSpec FaultSpec::spike(double p, double factor) {
  FaultSpec s;
  s.kind = FaultKind::kSpike;
  s.spike_prob = p;
  s.spike_factor = factor;
  return s;
}

FaultSpec FaultSpec::crash(std::int32_t count, double downtime_units, double period_units) {
  FaultSpec s;
  s.kind = FaultKind::kCrash;
  s.crash_count = count;
  s.crash_downtime_units = downtime_units;
  s.crash_period_units = period_units;
  return s;
}

FaultSpec FaultSpec::partition(std::int32_t count, double downtime_units, double period_units) {
  FaultSpec s;
  s.kind = FaultKind::kPartition;
  s.partition_count = count;
  s.partition_downtime_units = downtime_units;
  s.partition_period_units = period_units;
  return s;
}

FaultSpec FaultSpec::churn(double rate, bool leaf_only) {
  FaultSpec s;
  s.kind = FaultKind::kChurn;
  s.churn_rate = rate;
  s.churn_leaf_only = leaf_only ? 1 : 0;
  return s;
}

FaultSpec FaultSpec::chaos() {
  FaultSpec s;
  s.kind = FaultKind::kChaos;
  s.loss_prob = 0.05;
  s.dup_prob = 0.05;
  s.jitter_prob = 0.10;
  s.jitter_max_units = 1.0;
  s.spike_prob = 0.02;
  s.spike_factor = 4.0;
  s.crash_count = 1;
  s.partition_count = 1;
  s.churn_rate = 2.0;
  return s;
}

namespace {

std::vector<std::string> split_colon(const std::string& token) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    std::size_t next = token.find(':', pos);
    if (next == std::string::npos) {
      parts.push_back(token.substr(pos));
      return parts;
    }
    parts.push_back(token.substr(pos, next - pos));
    pos = next + 1;
  }
}

// Fault-token numeric fields use a strict decimal grammar: one or more
// digits, optionally followed by '.' and one or more digits. This rejects
// everything strtod/strtoll would otherwise sneak through — hex floats
// ("0x1"), exponents ("1e0"), signs ("+2"), and leading-dot forms (".5") —
// so a token is either fully consumed or rejected with no residue.
bool strict_decimal(const std::string& s, bool allow_fraction) {
  std::size_t i = 0;
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  if (i < s.size() && s[i] == '.' && allow_fraction) {
    ++i;
    if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  }
  return i == s.size();
}

std::optional<double> parse_field_f64(const std::string& s) {
  if (!strict_decimal(s, /*allow_fraction=*/true)) return std::nullopt;
  return parse_positive_f64(s);
}

std::optional<std::int64_t> parse_field_i64(const std::string& s) {
  if (!strict_decimal(s, /*allow_fraction=*/false)) return std::nullopt;
  return parse_positive_i64(s);
}

std::optional<double> parse_prob(const std::string& s) {
  auto p = parse_field_f64(s);
  if (!p || *p > 1.0) return std::nullopt;
  return p;
}

}  // namespace

std::optional<FaultSpec> parse_fault_spec(const std::string& token) {
  std::vector<std::string> parts = split_colon(token);
  const std::string& head = parts.front();
  const std::size_t extra = parts.size() - 1;

  if (head == "none") {
    if (extra != 0) return std::nullopt;
    return FaultSpec::none();
  }
  if (head == "chaos") {
    if (extra != 0) return std::nullopt;
    return FaultSpec::chaos();
  }
  if (head == "loss" || head == "dup") {
    if (extra != 1) return std::nullopt;
    auto p = parse_prob(parts[1]);
    if (!p) return std::nullopt;
    return head == "loss" ? FaultSpec::loss(*p) : FaultSpec::duplicate(*p);
  }
  if (head == "jitter") {
    if (extra < 1 || extra > 2) return std::nullopt;
    auto p = parse_prob(parts[1]);
    if (!p) return std::nullopt;
    double max_units = 1.0;
    if (extra == 2) {
      auto m = parse_field_f64(parts[2]);
      if (!m) return std::nullopt;
      max_units = *m;
    }
    return FaultSpec::jitter(*p, max_units);
  }
  if (head == "spike") {
    if (extra < 1 || extra > 2) return std::nullopt;
    auto p = parse_prob(parts[1]);
    if (!p) return std::nullopt;
    double factor = 4.0;
    if (extra == 2) {
      auto f = parse_field_f64(parts[2]);
      if (!f || *f < 1.0) return std::nullopt;
      factor = *f;
    }
    return FaultSpec::spike(*p, factor);
  }
  if (head == "crash") {
    if (extra < 1 || extra > 3) return std::nullopt;
    auto n = parse_field_i64(parts[1]);
    if (!n || *n > 1024) return std::nullopt;
    double down = 4.0, period = 16.0;
    if (extra >= 2) {
      auto d = parse_field_f64(parts[2]);
      if (!d) return std::nullopt;
      down = *d;
    }
    if (extra == 3) {
      auto pd = parse_field_f64(parts[3]);
      if (!pd) return std::nullopt;
      period = *pd;
    }
    return FaultSpec::crash(static_cast<std::int32_t>(*n), down, period);
  }
  if (head == "partition") {
    if (extra < 2 || extra > 3) return std::nullopt;
    auto n = parse_field_i64(parts[1]);
    if (!n || *n > static_cast<std::int64_t>(kMaxChurnEvents)) return std::nullopt;
    auto down = parse_field_f64(parts[2]);
    if (!down) return std::nullopt;
    double period = 24.0;
    if (extra == 3) {
      auto pd = parse_field_f64(parts[3]);
      if (!pd) return std::nullopt;
      period = *pd;
    }
    return FaultSpec::partition(static_cast<std::int32_t>(*n), *down, period);
  }
  if (head == "churn") {
    if (extra < 1 || extra > 2) return std::nullopt;
    auto rate = parse_field_f64(parts[1]);
    if (!rate || *rate > 100.0) return std::nullopt;
    bool leaf_only = false;
    if (extra == 2) {
      if (parts[2] == "leaf") {
        leaf_only = true;
      } else if (parts[2] != "any") {
        return std::nullopt;
      }
    }
    return FaultSpec::churn(*rate, leaf_only);
  }
  return std::nullopt;
}

std::vector<CrashEventSpec> crash_schedule(const FaultSpec& spec, NodeId node_count) {
  std::vector<CrashEventSpec> out;
  if (spec.crash_count <= 0 || node_count <= 0) return out;
  const Time period = std::max<Time>(
      1, static_cast<Time>(std::llround(spec.crash_period_units *
                                        static_cast<double>(kTicksPerUnit))));
  const Time down = std::max<Time>(
      1, static_cast<Time>(std::llround(spec.crash_downtime_units *
                                        static_cast<double>(kTicksPerUnit))));
  out.reserve(static_cast<std::size_t>(spec.crash_count));
  for (std::int32_t k = 0; k < spec.crash_count; ++k) {
    CrashEventSpec c;
    c.at = static_cast<Time>(k + 1) * period;
    c.up_at = c.at + down;
    c.victim = static_cast<NodeId>(
        mix64(spec.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1))) %
        static_cast<std::uint64_t>(node_count));
    out.push_back(c);
  }
  return out;
}

std::vector<CrashEventSpec> partition_schedule(const FaultSpec& spec, NodeId node_count) {
  std::vector<CrashEventSpec> out;
  if (spec.partition_count <= 0 || node_count <= 0) return out;
  const Time period = std::max<Time>(
      1, static_cast<Time>(std::llround(spec.partition_period_units *
                                        static_cast<double>(kTicksPerUnit))));
  const Time down = std::max<Time>(
      1, static_cast<Time>(std::llround(spec.partition_downtime_units *
                                        static_cast<double>(kTicksPerUnit))));
  out.reserve(static_cast<std::size_t>(spec.partition_count));
  for (std::int32_t k = 0; k < spec.partition_count; ++k) {
    CrashEventSpec c;
    c.at = static_cast<Time>(k + 1) * period;
    c.up_at = c.at + down;
    // victim names the cut node: the tree edge (victim, parent(victim)) is
    // severed, isolating victim's subtree. ArrowRecovery remaps this draw
    // away from the anchor (the root has no parent edge).
    c.victim = static_cast<NodeId>(
        mix64(spec.seed ^ (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(k + 1))) %
        static_cast<std::uint64_t>(node_count));
    out.push_back(c);
  }
  // A downtime longer than the period would make windows overlap, and the
  // heal→next-onset event chain would have to schedule into the past. Clamp
  // each window to end no later than the next begins: a new cut implies the
  // previous one healed.
  for (std::size_t k = 0; k + 1 < out.size(); ++k)
    out[k].up_at = std::min(out[k].up_at, out[k + 1].at);
  return out;
}

std::vector<CrashEventSpec> churn_schedule(const FaultSpec& spec, NodeId node_count) {
  std::vector<CrashEventSpec> out;
  if (spec.churn_rate <= 0.0 || node_count <= 0) return out;
  // churn_rate is expected leave/rejoin events per 100 time units, so
  // successive events are 100/rate units apart. The schedule is capped at
  // kMaxChurnEvents; runs shorter than the last event simply see fewer.
  const double period_units = 100.0 / spec.churn_rate;
  const Time period = std::max<Time>(
      1, static_cast<Time>(std::llround(period_units * static_cast<double>(kTicksPerUnit))));
  const Time down = std::max<Time>(
      1, static_cast<Time>(std::llround(4.0 * static_cast<double>(kTicksPerUnit))));
  out.reserve(kMaxChurnEvents);
  for (std::size_t k = 0; k < kMaxChurnEvents; ++k) {
    CrashEventSpec c;
    c.at = static_cast<Time>(k + 1) * period;
    c.up_at = c.at + down;
    c.victim = static_cast<NodeId>(
        mix64(spec.seed ^ (0x9e3779b185ebca87ULL * static_cast<std::uint64_t>(k + 1))) %
        static_cast<std::uint64_t>(node_count));
    out.push_back(c);
  }
  return out;
}

Time FaultFilter::units_to_ticks_rounded(double units) {
  return static_cast<Time>(std::llround(units * static_cast<double>(kTicksPerUnit)));
}

Time FaultFilter::scale_latency(Time lat, double factor) {
  double scaled = static_cast<double>(lat) * factor;
  return std::max<Time>(1, static_cast<Time>(std::llround(scaled)));
}

}  // namespace arrowdq
