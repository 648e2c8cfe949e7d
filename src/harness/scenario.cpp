#include "harness/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>

#include "common/contract.hpp"
#include "common/hash.hpp"
#include "harness/workload.hpp"
#include "wire/messages.hpp"

namespace pmc {

namespace {

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

// Labeled RNG stream tags (arbitrary distinct salts).
constexpr std::uint64_t kFounderStream = 0xf0bdde55;
constexpr std::uint64_t kActionStreamSalt = 0xac710095;

SimTime parse_time_token(const std::string& token, std::size_t line) {
  try {
    return parse_sim_time(token);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("scenario line " + std::to_string(line) +
                                ": " + e.what());
  }
}

std::string format_time(SimTime t) {
  if (t != 0 && t % sim_sec(1) == 0)
    return std::to_string(t / sim_sec(1)) + "s";
  if (t != 0 && t % sim_ms(1) == 0)
    return std::to_string(t / sim_ms(1)) + "ms";
  return std::to_string(t) + "us";
}

std::size_t parse_count(const std::string& token, std::size_t line) {
  // Strict: every character must be a digit ("3ms" is a typo, not a 3).
  const bool all_digits =
      !token.empty() &&
      std::all_of(token.begin(), token.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  if (all_digits) {
    try {
      return static_cast<std::size_t>(std::stoull(token));
    } catch (const std::exception&) {  // out_of_range
    }
  }
  throw std::invalid_argument("scenario line " + std::to_string(line) +
                              ": expected a count, got '" + token + "'");
}

double parse_double_token(const std::string& token, std::size_t line,
                          const char* what) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size())
    throw std::invalid_argument("scenario line " + std::to_string(line) +
                                ": expected a " + what + ", got '" + token +
                                "'");
  return value;
}

std::vector<AddrComponent> parse_components(const std::string& token,
                                            std::size_t line) {
  std::vector<AddrComponent> out;
  std::istringstream parts(token);
  for (std::string part; std::getline(parts, part, ',');) {
    const std::size_t c = parse_count(part, line);
    if (c > std::numeric_limits<AddrComponent>::max())
      throw std::invalid_argument("scenario line " + std::to_string(line) +
                                  ": address component out of range: '" +
                                  part + "'");
    out.push_back(static_cast<AddrComponent>(c));
  }
  return out;
}

AddressSpace make_space(const ChurnConfig& config) {
  config.validate();
  return AddressSpace::regular(static_cast<AddrComponent>(config.a),
                               config.d);
}

/// Splices every TraceReplay's parsed child timeline into the script,
/// offsetting the child's times (including the absolute heal/until times
/// carried inside Partition/AsymPartition/Flap ops) by the replay action's
/// time. Nested replays are rejected; the result is re-sorted (stable, so
/// same-time actions keep script order) and still must pass validate().
ScenarioScript expand_traces(const ScenarioScript& script) {
  const auto checked_add = [](SimTime base, SimTime offset,
                              const std::string& path) {
    if (base > std::numeric_limits<SimTime>::max() - offset)
      throw std::invalid_argument("scenario trace '" + path +
                                  "': offset time out of range");
    return base + offset;
  };
  std::vector<ScenarioAction> out;
  for (const auto& action : script.actions()) {
    const auto* replay = std::get_if<TraceReplay>(&action.op);
    if (replay == nullptr) {
      out.push_back(action);
      continue;
    }
    std::ifstream in(replay->path);
    if (!in)
      throw std::invalid_argument("scenario trace '" + replay->path +
                                  "': cannot open");
    std::ostringstream text;
    text << in.rdbuf();
    ScenarioScript child;
    try {
      child = ScenarioScript::parse(text.str());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario trace '" + replay->path +
                                  "': " + e.what());
    }
    for (const auto& sub : child.actions()) {
      if (std::holds_alternative<TraceReplay>(sub.op))
        throw std::invalid_argument("scenario trace '" + replay->path +
                                    "': nested replay is not supported");
      ScenarioOp op = sub.op;
      if (auto* part = std::get_if<Partition>(&op)) {
        part->heal_at = checked_add(part->heal_at, action.at, replay->path);
      } else if (auto* asym = std::get_if<AsymPartition>(&op)) {
        asym->heal_at = checked_add(asym->heal_at, action.at, replay->path);
      } else if (auto* flap = std::get_if<Flap>(&op)) {
        flap->until = checked_add(flap->until, action.at, replay->path);
      }
      out.push_back(ScenarioAction{
          checked_add(sub.at, action.at, replay->path), std::move(op)});
    }
  }
  std::stable_sort(
      out.begin(), out.end(),
      [](const ScenarioAction& a, const ScenarioAction& b) {
        return a.at < b.at;
      });
  ScenarioScript expanded;
  for (auto& a : out) expanded.add(a.at, std::move(a.op));
  return expanded;
}

}  // namespace

SimTime parse_sim_time(const std::string& token) {
  std::size_t digits = 0;
  while (digits < token.size() &&
         std::isdigit(static_cast<unsigned char>(token[digits])))
    ++digits;
  if (digits == 0)
    throw std::invalid_argument("expected a time, got '" + token + "'");
  std::int64_t value = 0;
  try {
    value = std::stoll(token.substr(0, digits));
  } catch (const std::exception&) {  // out_of_range on overflow
    throw std::invalid_argument("time out of range: '" + token + "'");
  }
  const std::string unit = token.substr(digits);
  // Guard the unit multiplication too: sim_ms/sim_sec must not overflow.
  const std::int64_t scale =
      (unit == "ms") ? 1000 : (unit == "s") ? 1000 * 1000 : 1;
  if (value > std::numeric_limits<SimTime>::max() / scale)
    throw std::invalid_argument("time out of range: '" + token + "'");
  if (unit.empty() || unit == "us") return sim_us(value);
  if (unit == "ms") return sim_ms(value);
  if (unit == "s") return sim_sec(value);
  throw std::invalid_argument("unknown time unit '" + unit + "'");
}

// ---------------------------------------------------------------------------
// ScenarioScript
// ---------------------------------------------------------------------------

ScenarioScript& ScenarioScript::add(SimTime at, ScenarioOp op) {
  actions_.push_back(ScenarioAction{at, std::move(op)});
  return *this;
}

void ScenarioScript::validate(std::uint64_t prior_crashes) const {
  SimTime prev = 0;
  std::uint64_t crashes = prior_crashes;
  std::uint64_t recovers = 0;
  SimTime loss_busy_until = 0;
  SimTime dup_busy_until = 0;
  for (const auto& action : actions_) {
    PMC_EXPECTS(action.at >= 0);
    PMC_EXPECTS(action.at >= prev);  // timeline must be sorted
    prev = action.at;
    std::visit(
        Overload{
            [&](const CrashNodes& op) {
              PMC_EXPECTS(op.count >= 1);
              crashes += op.count;
            },
            [&](const RecoverNodes& op) {
              PMC_EXPECTS(op.count >= 1);
              recovers += op.count;
              PMC_EXPECTS(recovers <= crashes);  // recover-before-crash
            },
            [&](const Join& op) { PMC_EXPECTS(op.count >= 1); },
            [&](const Leave& op) { PMC_EXPECTS(op.count >= 1); },
            [&](const Partition& op) {
              PMC_EXPECTS(!op.side.empty());
              PMC_EXPECTS(op.heal_at > action.at);
            },
            [&](const LossBurst& op) {
              PMC_EXPECTS(op.eps >= 0.0 && op.eps <= 1.0);
              PMC_EXPECTS(op.duration > 0);
              PMC_EXPECTS(op.duration <=
                          std::numeric_limits<SimTime>::max() - action.at);
              // Overlapping bursts would silently truncate each other when
              // the earlier one's restore fires; reject them instead.
              PMC_EXPECTS(action.at >= loss_busy_until);
              loss_busy_until = action.at + op.duration;
            },
            [&](const PublishBurst& op) {
              PMC_EXPECTS(op.count >= 1);
              PMC_EXPECTS(op.spacing >= 0);
              if (op.spacing > 0) {
                // The whole spread must stay representable: the k-th
                // publish fires at action.at + k * spacing.
                const auto last = static_cast<std::uint64_t>(op.count - 1);
                PMC_EXPECTS(
                    last <= static_cast<std::uint64_t>(
                                std::numeric_limits<SimTime>::max() /
                                op.spacing));
                const SimTime spread =
                    static_cast<SimTime>(last) * op.spacing;
                PMC_EXPECTS(action.at <=
                            std::numeric_limits<SimTime>::max() - spread);
              }
            },
            [&](const LatencyProfile& op) {
              PMC_EXPECTS(op.median >= 0);
              // median == 0 restores the uniform default; sigma must be 0
              // there so every script has exactly one canonical text form.
              if (op.median > 0) {
                PMC_EXPECTS(op.sigma > 0.0 && op.sigma <= 4.0);
                // The clamp window is [0, 16 * median].
                PMC_EXPECTS(op.median <=
                            std::numeric_limits<SimTime>::max() / 16);
              } else {
                PMC_EXPECTS(op.sigma == 0.0);
              }
            },
            [&](const AsymPartition& op) {
              PMC_EXPECTS(!op.from_side.empty());
              PMC_EXPECTS(!op.to_side.empty());
              PMC_EXPECTS(op.heal_at > action.at);
            },
            [&](const Flap& op) {
              PMC_EXPECTS(!op.side.empty());
              PMC_EXPECTS(op.period > 0);
              PMC_EXPECTS(op.duty > 0.0 && op.duty < 1.0);
              PMC_EXPECTS(op.until > action.at);
            },
            [&](const RackFailure& op) {
              PMC_EXPECTS(!op.prefix.empty());
            },
            [&](const JoinStorm& op) {
              PMC_EXPECTS(op.count >= 1);
              PMC_EXPECTS(op.over >= 0);
              // The last join of the storm fires at action.at + over.
              PMC_EXPECTS(op.over <=
                          std::numeric_limits<SimTime>::max() - action.at);
            },
            [&](const DuplicateBurst& op) {
              PMC_EXPECTS(op.prob >= 0.0 && op.prob <= 1.0);
              PMC_EXPECTS(op.duration > 0);
              PMC_EXPECTS(op.duration <=
                          std::numeric_limits<SimTime>::max() - action.at);
              // Same non-overlap rule as loss bursts: a burst starting
              // inside another's window would truncate its restore.
              PMC_EXPECTS(action.at >= dup_busy_until);
              dup_busy_until = action.at + op.duration;
            },
            [&](const TraceReplay& op) {
              // Leaf check only: ChurnSim::play expands the trace (and
              // re-validates the spliced timeline); here we just need a
              // path the text format can round-trip.
              PMC_EXPECTS(!op.path.empty());
              PMC_EXPECTS(op.path.find('#') == std::string::npos);
              PMC_EXPECTS(std::none_of(
                  op.path.begin(), op.path.end(), [](unsigned char ch) {
                    return std::isspace(ch) != 0;
                  }));
            },
        },
        action.op);
  }
}

ScenarioScript ScenarioScript::parse(const std::string& text) {
  ScenarioScript script;
  std::istringstream stream(text);
  std::string raw_line;
  std::size_t line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const auto hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.resize(hash);
    std::istringstream line(raw_line);
    std::vector<std::string> tok;
    for (std::string t; line >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;

    const auto fail = [&](const std::string& why) -> std::invalid_argument {
      return std::invalid_argument("scenario line " +
                                   std::to_string(line_no) + ": " + why);
    };
    if (tok[0] != "at" || tok.size() < 3) {
      throw fail("expected 'at <time> <action> ...'");
    }
    const SimTime at = parse_time_token(tok[1], line_no);
    const std::string& verb = tok[2];
    const auto arg = [&](std::size_t i) -> const std::string& {
      if (i >= tok.size()) throw fail("missing argument for '" + verb + "'");
      return tok[i];
    };

    std::size_t expected = 4;  // "at <time> <verb> <count>"
    if (verb == "join") {
      script.add(at, Join{parse_count(arg(3), line_no)});
    } else if (verb == "leave") {
      script.add(at, Leave{parse_count(arg(3), line_no)});
    } else if (verb == "crash") {
      script.add(at, CrashNodes{parse_count(arg(3), line_no)});
    } else if (verb == "recover") {
      script.add(at, RecoverNodes{parse_count(arg(3), line_no)});
    } else if (verb == "partition") {
      Partition op;
      std::istringstream sides(arg(3));
      for (std::string part; std::getline(sides, part, ',');) {
        const std::size_t c = parse_count(part, line_no);
        if (c > std::numeric_limits<AddrComponent>::max())
          throw fail("partition component out of range: '" + part + "'");
        op.side.push_back(static_cast<AddrComponent>(c));
      }
      if (arg(4) != "heal") throw fail("expected 'heal <time>'");
      op.heal_at = parse_time_token(arg(5), line_no);
      script.add(at, std::move(op));
      expected = 6;
    } else if (verb == "loss") {
      LossBurst op;
      const std::string& eps = arg(3);
      char* end = nullptr;
      op.eps = std::strtod(eps.c_str(), &end);
      if (eps.empty() || end != eps.c_str() + eps.size())
        throw fail("expected a loss probability, got '" + eps + "'");
      if (arg(4) != "for") throw fail("expected 'for <duration>'");
      op.duration = parse_time_token(arg(5), line_no);
      script.add(at, op);
      expected = 6;
    } else if (verb == "publish") {
      PublishBurst op;
      op.count = parse_count(arg(3), line_no);
      if (tok.size() > 4) {
        if (arg(4) != "every") throw fail("expected 'every <spacing>'");
        op.spacing = parse_time_token(arg(5), line_no);
        expected = 6;
      }
      script.add(at, op);
    } else if (verb == "latency") {
      LatencyProfile op;
      if (arg(3) == "uniform") {
        // defaults: median 0 restores the uniform draw
      } else if (arg(3) == "lognormal") {
        op.median = parse_time_token(arg(4), line_no);
        op.sigma = parse_double_token(arg(5), line_no, "sigma");
        expected = 6;
      } else {
        throw fail("expected 'lognormal <median> <sigma>' or 'uniform'");
      }
      script.add(at, op);
    } else if (verb == "asym") {
      AsymPartition op;
      op.from_side = parse_components(arg(3), line_no);
      if (arg(4) != "to") throw fail("expected 'to <components>'");
      op.to_side = parse_components(arg(5), line_no);
      if (arg(6) != "heal") throw fail("expected 'heal <time>'");
      op.heal_at = parse_time_token(arg(7), line_no);
      script.add(at, std::move(op));
      expected = 8;
    } else if (verb == "flap") {
      Flap op;
      op.side = parse_components(arg(3), line_no);
      if (arg(4) != "period") throw fail("expected 'period <time>'");
      op.period = parse_time_token(arg(5), line_no);
      if (arg(6) != "duty") throw fail("expected 'duty <fraction>'");
      op.duty = parse_double_token(arg(7), line_no, "duty fraction");
      if (arg(8) != "until") throw fail("expected 'until <time>'");
      op.until = parse_time_token(arg(9), line_no);
      script.add(at, std::move(op));
      expected = 10;
    } else if (verb == "rack") {
      RackFailure op;
      op.prefix = parse_components(arg(3), line_no);
      script.add(at, std::move(op));
    } else if (verb == "joinstorm") {
      JoinStorm op;
      op.count = parse_count(arg(3), line_no);
      if (tok.size() > 4) {
        if (arg(4) != "over") throw fail("expected 'over <spread>'");
        op.over = parse_time_token(arg(5), line_no);
        expected = 6;
      }
      script.add(at, op);
    } else if (verb == "duplicate") {
      DuplicateBurst op;
      op.prob = parse_double_token(arg(3), line_no,
                                   "duplication probability");
      if (arg(4) != "for") throw fail("expected 'for <duration>'");
      op.duration = parse_time_token(arg(5), line_no);
      script.add(at, op);
      expected = 6;
    } else if (verb == "replay") {
      script.add(at, TraceReplay{arg(3)});
    } else {
      throw fail("unknown action '" + verb + "'");
    }
    // Anything left over means the line said more than the action can
    // express — reject it rather than silently dropping qualifiers.
    if (tok.size() > expected)
      throw fail("unexpected trailing token '" + tok[expected] + "'");
  }
  return script;
}

ScenarioScript ScenarioScript::demo() {
  ScenarioScript s;
  s.add(sim_ms(200), Join{2});       // staggered joins...
  s.add(sim_ms(350), Join{2});       // ...in two waves
  s.add(sim_ms(600), PublishBurst{6, sim_ms(25)});
  s.add(sim_ms(900), CrashNodes{3});  // crash burst
  s.add(sim_ms(1000), Partition{{0, 1}, sim_ms(1800)});
  s.add(sim_ms(1200), LossBurst{0.35, sim_ms(400)});  // loss spike
  s.add(sim_ms(1400), PublishBurst{6, sim_ms(25)});
  s.add(sim_ms(2000), RecoverNodes{2});
  s.add(sim_ms(2300), Leave{1});
  s.add(sim_ms(2500), PublishBurst{4, sim_ms(50)});
  return s;
}

std::string ScenarioScript::to_string() const {
  std::ostringstream out;
  for (const auto& action : actions_) {
    out << "at " << format_time(action.at) << ' ';
    std::visit(
        Overload{
            [&](const CrashNodes& op) { out << "crash " << op.count; },
            [&](const RecoverNodes& op) { out << "recover " << op.count; },
            [&](const Join& op) { out << "join " << op.count; },
            [&](const Leave& op) { out << "leave " << op.count; },
            [&](const Partition& op) {
              out << "partition ";
              for (std::size_t i = 0; i < op.side.size(); ++i)
                out << (i ? "," : "") << op.side[i];
              out << " heal " << format_time(op.heal_at);
            },
            [&](const LossBurst& op) {
              // Shortest representation that parses back to the same
              // double, keeping parse(to_string()) exact.
              char buf[32];
              const auto res =
                  std::to_chars(buf, buf + sizeof buf, op.eps);
              out << "loss " << std::string_view(buf, res.ptr) << " for "
                  << format_time(op.duration);
            },
            [&](const PublishBurst& op) {
              out << "publish " << op.count;
              if (op.spacing > 0) out << " every " << format_time(op.spacing);
            },
            [&](const LatencyProfile& op) {
              if (op.median == 0) {
                out << "latency uniform";
              } else {
                char buf[32];
                const auto res =
                    std::to_chars(buf, buf + sizeof buf, op.sigma);
                out << "latency lognormal " << format_time(op.median) << ' '
                    << std::string_view(buf, res.ptr);
              }
            },
            [&](const AsymPartition& op) {
              out << "asym ";
              for (std::size_t i = 0; i < op.from_side.size(); ++i)
                out << (i ? "," : "") << op.from_side[i];
              out << " to ";
              for (std::size_t i = 0; i < op.to_side.size(); ++i)
                out << (i ? "," : "") << op.to_side[i];
              out << " heal " << format_time(op.heal_at);
            },
            [&](const Flap& op) {
              char buf[32];
              const auto res = std::to_chars(buf, buf + sizeof buf, op.duty);
              out << "flap ";
              for (std::size_t i = 0; i < op.side.size(); ++i)
                out << (i ? "," : "") << op.side[i];
              out << " period " << format_time(op.period) << " duty "
                  << std::string_view(buf, res.ptr) << " until "
                  << format_time(op.until);
            },
            [&](const RackFailure& op) {
              out << "rack ";
              for (std::size_t i = 0; i < op.prefix.size(); ++i)
                out << (i ? "," : "") << op.prefix[i];
            },
            [&](const JoinStorm& op) {
              out << "joinstorm " << op.count;
              if (op.over > 0) out << " over " << format_time(op.over);
            },
            [&](const DuplicateBurst& op) {
              char buf[32];
              const auto res = std::to_chars(buf, buf + sizeof buf, op.prob);
              out << "duplicate " << std::string_view(buf, res.ptr)
                  << " for " << format_time(op.duration);
            },
            [&](const TraceReplay& op) { out << "replay " << op.path; },
        },
        action.op);
    out << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// ChurnConfig
// ---------------------------------------------------------------------------

std::size_t ChurnConfig::capacity() const {
  // Saturating a^d, so a nonsense shape cannot wrap into a plausible size.
  std::size_t n = 1;
  for (std::size_t i = 0; i < d; ++i) {
    if (a != 0 && n > std::numeric_limits<std::size_t>::max() / a)
      return std::numeric_limits<std::size_t>::max();
    n *= a;
  }
  return n;
}

void ChurnConfig::validate() const {
  PMC_EXPECTS(a >= 1 && d >= 1 && r >= 1 && fanout >= 1);
  // Arities are AddrComponent-sized; a larger value would silently
  // truncate when the address space is built.
  PMC_EXPECTS(a <= std::numeric_limits<AddrComponent>::max());
  // The engine instantiates two protocol nodes per address up front;
  // beyond ~4M addresses the config is nonsense, not a workload.
  PMC_EXPECTS(capacity() <= (std::size_t{1} << 22));
  PMC_EXPECTS(pd >= 0.0 && pd <= 1.0);
  PMC_EXPECTS(initial_fill > 0.0 && initial_fill <= 1.0);
  PMC_EXPECTS(loss >= 0.0 && loss < 1.0);
  PMC_EXPECTS(latency_min >= 0 && latency_min <= latency_max);
  PMC_EXPECTS(period > 0);
  PMC_EXPECTS(suspicion_timeout > 0);
  PMC_EXPECTS(adaptive_alpha > 0.0 && adaptive_alpha <= 1.0);
  PMC_EXPECTS(adaptive_interval >= 0);
  PMC_EXPECTS(capacity() >= 2);
}

// ---------------------------------------------------------------------------
// GroupSummary / ChurnSummary
// ---------------------------------------------------------------------------

namespace {

/// GroupSummary and ChurnSummary share the group-local fields by name;
/// templating over the summary type keeps this a single field list instead
/// of a long positional parameter row two call sites could transpose.
template <class SummaryT>
void append_group_fields(std::ostringstream& out, const SummaryT& s) {
  const ChurnCounters& c = s.counters;
  out << "live " << s.live << " (joined " << s.joined << ")"
      << " | joins " << c.joins_requested << " (served " << s.joins_served
      << ")"
      << " | crashes " << c.crashes << " | leaves " << c.leaves
      << " | recoveries " << c.recoveries
      << " | partitions " << c.partitions << "/" << c.heals << " healed"
      << " | loss bursts " << c.loss_bursts
      << " | published " << c.published << " | delivered " << c.delivered;
  if (s.latency_samples > 0) {
    out << " | latency mean "
        << (static_cast<double>(s.latency_total) /
            static_cast<double>(s.latency_samples)) /
               static_cast<double>(sim_ms(1))
        << "ms max " << static_cast<double>(s.latency_max) /
               static_cast<double>(sim_ms(1)) << "ms";
  }
  if (s.env_windows > 0) {
    // ppm -> fractional display with no float round-tripping on the wire.
    out << " | env eps~" << static_cast<double>(s.env_loss_ppm) / 1e6
        << " tau~" << static_cast<double>(s.env_crash_ppm) / 1e6
        << " (" << s.env_windows << " windows)";
  }
  if (s.bound_collapsed > 0)
    out << " | bound collapsed " << s.bound_collapsed;
  if (s.dup_suppressed > 0) out << " | dup suppressed " << s.dup_suppressed;
  if (s.shed_events > 0) out << " | shed " << s.shed_events;
  out << " | tombstones " << s.membership_tombstones;
}

}  // namespace

double GroupSummary::latency_mean_ms() const {
  if (latency_samples == 0) return 0.0;
  return (static_cast<double>(latency_total) /
          static_cast<double>(latency_samples)) /
         static_cast<double>(sim_ms(1));
}

std::string GroupSummary::to_string() const {
  std::ostringstream out;
  append_group_fields(out, *this);
  out << " | fingerprint " << std::hex << fingerprint << std::dec;
  return out.str();
}

std::string ChurnSummary::to_string() const {
  std::ostringstream out;
  append_group_fields(out, *this);
  out << " | net sent " << network.sent << " lost " << network.lost
      << " filtered " << network.filtered
      << " | fingerprint " << std::hex << fingerprint << std::dec;
  return out.str();
}

// ---------------------------------------------------------------------------
// ChurnSim
// ---------------------------------------------------------------------------

ChurnSim::ChurnSim(ChurnConfig config)
    : config_(config), space_(make_space(config_)) {
  NetworkConfig net;
  net.loss_probability = config_.loss;
  net.latency_min = config_.latency_min;
  net.latency_max = config_.latency_max;
  owned_rt_ = std::make_unique<Runtime>(net, config_.seed);
  rt_ = owned_rt_.get();
  // Two protocol nodes per address: pre-size the handler and sender tables
  // so a full group never resizes them mid-run. Same idea for the intern
  // arenas: the whole address space is interned during init_population.
  rt_->network().reserve(2 * config_.capacity());
  owned_interns_ = std::make_unique<Interns>();
  owned_interns_->reserve(config_.capacity(), config_.d);
  interns_ = owned_interns_.get();
  if (config_.wire_transcode) {
    rt_->network().set_transcoder([interns = interns_](const MessagePtr& msg) {
      return wire::decode_message(wire::encode_message(*msg), *interns);
    });
  }
  apply_loss_ = [this](double eps) { rt_->network().set_loss(eps); };
  init_population();
}

ChurnSim::ChurnSim(Runtime& runtime, ChurnConfig config, ProcessId pid_base,
                   std::uint64_t stream_salt, Interns& interns)
    : config_(config),
      space_(make_space(config_)),
      rt_(&runtime),
      interns_(&interns),
      pid_base_(pid_base),
      stream_salt_(stream_salt) {
  // Runtime-wide knobs (latency, wire transcoding, base ε) belong to the
  // runtime's owner in shard mode; a LossBurst without a hook would leak
  // across every co-hosted group, so default to the scalar ε anyway and
  // expect the owner to install a scoped hook.
  apply_loss_ = [this](double eps) { rt_->network().set_loss(eps); };
  init_population();
}

void ChurnSim::init_population() {
  // Every address of the space owns a slot whose subscription depends only
  // on (seed, address), so churn never re-shuffles anyone else's interests.
  const auto addresses = space_.enumerate();
  slots_.reserve(addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    Slot slot;
    auto member = stable_member(addresses[i], config_.pd, config_.seed);
    slot.address = std::move(member.address);
    slot.subscription = std::move(member.subscription);
    const AddrId id = interns_->addrs.intern(slot.address);
    if (slot_of_id_.size() <= id) slot_of_id_.resize(id + 1, kNoSlot);
    slot_of_id_[id] = i;
    slots_.push_back(std::move(slot));
  }

  // Founders: a random subset of initial_fill * capacity addresses.
  const auto n = slots_.size();
  const auto founders = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(config_.initial_fill * static_cast<double>(n))));
  Rng founder_rng = stream(kFounderStream);
  auto picks = founder_rng.sample_without_replacement(
      n, std::min(founders, n));
  std::sort(picks.begin(), picks.end());

  std::vector<Member> members;
  members.reserve(picks.size());
  for (const auto i : picks)
    members.push_back(Member{slots_[i].address, slots_[i].subscription});
  TreeConfig tc;
  tc.depth = config_.d;
  tc.redundancy = config_.r;
  oracle_ = std::make_unique<GroupTree>(tc, std::move(members), *interns_);

  for (const auto i : picks) spawn(i, /*founder=*/true, kNoProcess);

  if (config_.adaptive) {
    adaptive_interval_ = config_.adaptive_interval > 0
                             ? config_.adaptive_interval
                             : 4 * config_.period;
    rt_->scheduler().schedule_after(adaptive_interval_,
                                    [this] { sample_environment(); });
  }
}

ChurnSim::~ChurnSim() = default;

ProcessId ChurnSim::sync_pid(std::size_t slot) const noexcept {
  return pid_base_ + static_cast<ProcessId>(slot);
}

ProcessId ChurnSim::pm_pid(std::size_t slot) const noexcept {
  return pid_base_ + static_cast<ProcessId>(slots_.size() + slot);
}

Rng ChurnSim::stream(std::uint64_t tag) const {
  // Salt 0 (single-group mode) leaves the label untouched, so classic runs
  // keep their historical streams; a shard's well-mixed salt moves every
  // label into its own namespace.
  return rt_->make_stream(stream_salt_ ^ tag);
}

void ChurnSim::set_loss_hook(std::function<void(double)> hook) {
  PMC_EXPECTS(hook != nullptr);
  apply_loss_ = std::move(hook);
}

std::size_t ChurnSim::slot_for(AddrId id) const noexcept {
  return id < slot_of_id_.size() ? slot_of_id_[id] : kNoSlot;
}

SyncNode::Directory ChurnSim::sync_directory() {
  return [this](AddrId id) {
    const std::size_t slot = slot_for(id);
    return slot == kNoSlot ? kNoProcess : sync_pid(slot);
  };
}

PmcastNode::Directory ChurnSim::pm_directory() {
  return [this](AddrId id) {
    const std::size_t slot = slot_for(id);
    return slot == kNoSlot ? kNoProcess : pm_pid(slot);
  };
}

void ChurnSim::spawn(std::size_t slot_idx, bool founder, ProcessId contact) {
  Slot& slot = slots_[slot_idx];
  // Destroy stale nodes first: a Process attaches its pid's network handler
  // in its constructor, so the old incarnation must detach before the new
  // one registers.
  slot.pm.reset();
  slot.provider.reset();
  slot.sync.reset();
  // A fresh incarnation starts with zeroed protocol stats, so its
  // estimator and feedback cursor restart from scratch too.
  slot.estimator.reset();
  slot.env_cursor = EnvCursor{};

  SyncConfig sc;
  sc.tree.depth = config_.d;
  sc.tree.redundancy = config_.r;
  sc.gossip_period = config_.period;
  sc.gossip_fanout = config_.fanout;
  sc.suspicion_timeout = config_.suspicion_timeout;
  sc.confirm_suspicion = config_.confirm_suspicion;
  sc.ack_digests = config_.adaptive;  // digests double as loss probes
  sc.join_backoff = config_.join_backoff;

  if (founder) {
    slot.sync = std::make_unique<SyncNode>(
        *rt_, sync_pid(slot_idx), sc,
        oracle_->materialize_view(slot.address), slot.subscription);
  } else {
    slot.sync = std::make_unique<SyncNode>(*rt_, sync_pid(slot_idx), sc,
                                           slot.address, slot.subscription,
                                           contact, *interns_);
  }
  slot.sync->set_directory(sync_directory());

  slot.provider = std::make_unique<LocalViewProvider>(slot.sync->view());

  PmcastConfig pc;
  pc.tree = sc.tree;
  pc.fanout = config_.fanout;
  pc.period = config_.period;
  pc.env.prior.loss = config_.loss;
  pc.env.adaptive = config_.adaptive;
  pc.env.ewma_alpha = config_.adaptive_alpha;
  pc.recovery_rounds = config_.recovery_rounds;
  pc.max_retained = config_.max_retained;
  pc.max_buffered = config_.max_buffered;
  slot.pm = std::make_unique<PmcastNode>(*rt_, pm_pid(slot_idx), pc,
                                         slot.address, slot.subscription,
                                         *slot.provider, pm_directory());
  if (config_.adaptive) {
    slot.estimator = std::make_unique<EnvEstimator>(pc.env);
    EnvEstimator* estimator = slot.estimator.get();
    slot.pm->set_env_source([estimator] { return estimator->estimate(); });
  }
  slot.pm->set_deliver_handler([this](const Event& e) {
    ++counters_.delivered;
    const auto it = publish_times_.find(e.id());
    if (it != publish_times_.end()) {
      const SimTime latency = rt_->now() - it->second;
      ++latency_samples_;
      latency_total_ += latency;
      latency_max_ = std::max(latency_max_, latency);
    }
  });
  SyncNode* sync = slot.sync.get();
  slot.pm->set_piggyback(
      [sync](AddrId target) {
        return std::make_shared<const RowBatch>(sync->rows_to_share(target));
      },
      [sync](const SenderRef& sender, const RowBatch& rows) {
        sync->absorb_rows(sender, rows);
      });

  slot.live = true;
}

void ChurnSim::play(const ScenarioScript& script) {
  // TraceReplay actions splice their parsed child timeline in here, before
  // validation — everything below (including the stream labels) operates
  // on the expanded script, so a replayed action is indistinguishable from
  // the same action written inline at its offset time.
  const bool has_replay = std::any_of(
      script.actions().begin(), script.actions().end(),
      [](const ScenarioAction& a) {
        return std::holds_alternative<TraceReplay>(a.op);
      });
  ScenarioScript expanded;
  if (has_replay) expanded = expand_traces(script);
  const ScenarioScript& timeline = has_replay ? expanded : script;

  timeline.validate(crash_credit_);
  const SimTime start = rt_->now();
  // Engine-level validation the script alone cannot do. The whole script
  // must be accepted before any state changes: a throw below would
  // otherwise leave phantom crash credit or already-scheduled actions.
  const auto check_top_components =
      [this](const std::vector<AddrComponent>& side) {
        // A component outside the address space would make the split a
        // silent no-op; reject it instead.
        for (const auto c : side) PMC_EXPECTS(c < space_.arity(0));
      };
  SimTime loss_busy_until = loss_busy_until_;
  SimTime dup_busy_until = dup_busy_until_;
  for (const auto& action : timeline.actions()) {
    PMC_EXPECTS(action.at >= start);  // no actions scheduled in the past
    if (const auto* part = std::get_if<Partition>(&action.op)) {
      check_top_components(part->side);
    } else if (const auto* burst = std::get_if<LossBurst>(&action.op)) {
      // Also reject bursts overlapping one scheduled by an earlier play().
      PMC_EXPECTS(action.at >= loss_busy_until);
      loss_busy_until = action.at + burst->duration;
    } else if (const auto* asym = std::get_if<AsymPartition>(&action.op)) {
      check_top_components(asym->from_side);
      check_top_components(asym->to_side);
    } else if (const auto* flap = std::get_if<Flap>(&action.op)) {
      check_top_components(flap->side);
    } else if (const auto* rack = std::get_if<RackFailure>(&action.op)) {
      PMC_EXPECTS(rack->prefix.size() <= space_.depth());
      for (std::size_t i = 0; i < rack->prefix.size(); ++i)
        PMC_EXPECTS(rack->prefix[i] < space_.arity(i));
    } else if (const auto* dup = std::get_if<DuplicateBurst>(&action.op)) {
      PMC_EXPECTS(action.at >= dup_busy_until);
      dup_busy_until = action.at + dup->duration;
    }
  }
  // Accepted: account the crash credit appended timelines recover against,
  // and the windows the last scheduled loss/duplication bursts occupy.
  loss_busy_until_ = loss_busy_until;
  dup_busy_until_ = dup_busy_until;
  for (const auto& action : timeline.actions()) {
    if (const auto* crash = std::get_if<CrashNodes>(&action.op)) {
      crash_credit_ += crash->count;
    } else if (const auto* rec = std::get_if<RecoverNodes>(&action.op)) {
      crash_credit_ -= rec->count;  // validate() guaranteed non-negative
    } else if (const auto* rack = std::get_if<RackFailure>(&action.op)) {
      // A rack failure's victim count is only known at fire time; credit
      // the whole zone's capacity so a later RecoverNodes can target it.
      std::uint64_t zone = 1;
      for (std::size_t i = rack->prefix.size(); i < space_.depth(); ++i)
        zone *= space_.arity(i);
      crash_credit_ += zone;
    }
  }
  // Stream labels: (time, kind, ordinal-within-time-and-kind), hashed with
  // the run seed. Ordinals persist across play() calls so appended
  // timelines never reuse a label. New ScenarioOp alternatives append at
  // the variant's end — the label hashes op.index().
  static_assert(std::variant_size_v<ScenarioOp> == 14);
  for (const auto& action : timeline.actions()) {
    const auto key = std::make_pair(action.at, action.op.index());
    const std::uint64_t ordinal = action_ordinals_[key]++;
    const std::uint64_t tag =
        fnv1a_u64(fnv1a_u64(fnv1a_u64(kFnv1aBasis ^ kActionStreamSalt,
                          static_cast<std::uint64_t>(action.at)),
                    action.op.index()),
              ordinal);
    auto rng = std::make_shared<Rng>(stream(tag));
    rt_->scheduler().schedule_at(
        action.at,
        [this, action, rng] { apply(action, rng); });
  }
}

void ChurnSim::sample_environment() {
  for (auto& slot : slots_) {
    if (!slot.live || slot.estimator == nullptr || slot.sync == nullptr)
      continue;
    const auto& s = slot.sync->stats();
    slot.estimator->observe_feedback(
        s.digests_sent - slot.env_cursor.digests_sent,
        s.digest_acks - slot.env_cursor.digest_acks);
    slot.estimator->observe_churn(
        s.deaths_observed - slot.env_cursor.deaths_observed,
        slot.sync->view().known_processes());
    slot.env_cursor = EnvCursor{s.digests_sent, s.digest_acks,
                                s.deaths_observed};
  }
  rt_->scheduler().schedule_after(adaptive_interval_,
                                  [this] { sample_environment(); });
}

void ChurnSim::run_for(SimTime duration) { rt_->run_for(duration); }
void ChurnSim::run_until(SimTime deadline) { rt_->run_until(deadline); }
SimTime ChurnSim::now() const noexcept { return rt_->now(); }

std::vector<std::size_t> ChurnSim::live_slots() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].live) out.push_back(i);
  return out;
}

std::vector<std::size_t> ChurnSim::contact_slots() const {
  // Prefer fully joined processes as join contacts (a real joiner would be
  // pointed at an established member); fall back to any live process.
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].live && slots_[i].sync->joined()) out.push_back(i);
  return out.empty() ? live_slots() : out;
}

std::vector<std::size_t> ChurnSim::pick_live(std::size_t count, Rng& rng) {
  const auto live = live_slots();
  const std::size_t n = std::min(count, live.size());
  counters_.skipped += count - n;
  std::vector<std::size_t> out;
  out.reserve(n);
  for (const auto i : rng.sample_without_replacement(live.size(), n))
    out.push_back(live[i]);
  return out;
}

void ChurnSim::retarget_pending_joiners(Rng& rng) {
  // A contact that crashed or left strands its pending joiners (they would
  // retry a dead pid until their budget runs out): point every live,
  // unjoined process at a fresh contact.
  const auto contacts = contact_slots();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live || slots_[i].sync->joined()) continue;
    if (contacts.empty()) break;
    const std::size_t pick = contacts[rng.next_below(contacts.size())];
    if (pick == i) continue;  // nobody else to ask
    slots_[i].sync->retarget_join(sync_pid(pick));
  }
}

void ChurnSim::do_join(Rng& rng) {
  // One fresh joiner (JoinStorm's unit of work). Unlike the batched Join
  // action this re-queries the vacancy list per call — storm joins are
  // spread over time, and earlier arrivals must shrink the pool seen by
  // later ones.
  const auto vacant = oracle_->vacancies(space_);
  if (vacant.empty()) {
    ++counters_.skipped;
    return;
  }
  const Address address = vacant[rng.next_below(vacant.size())];
  const auto contacts = contact_slots();
  if (contacts.empty()) {
    ++counters_.skipped;
    return;
  }
  const std::size_t contact = contacts[rng.next_below(contacts.size())];
  const std::size_t idx = slot_for(interns_->addrs.intern(address));
  spawn(idx, /*founder=*/false, sync_pid(contact));
  oracle_->add_member(address, slots_[idx].subscription);
  ++counters_.joins_requested;
}

void ChurnSim::publish_one(Rng& rng) {
  const auto live = live_slots();
  if (live.empty()) {
    ++counters_.skipped;
    return;
  }
  const std::size_t slot =
      live[rng.next_below(live.size())];
  Event e = make_uniform_event(pm_pid(slot), publish_seq_++, rng);
  // Deliveries owed: every live matching process at publish time (pure
  // predicate evaluation, no draws — see ChurnCounters).
  for (const auto& s : slots_)
    if (s.live && s.subscription.match(e)) ++counters_.expected_deliveries;
  // Record before pmcast: the publisher may deliver to itself inline.
  publish_times_.emplace(e.id(), rt_->now());
  ++counters_.published;
  slots_[slot].pm->pmcast(std::move(e));
}

bool ChurnSim::publish_external(const EventId& id, double u, Rng& rng) {
  const auto live = live_slots();
  if (live.empty()) {
    ++counters_.skipped;
    return false;
  }
  const std::size_t slot = live[rng.next_below(live.size())];
  Event e = make_event_at(id.publisher, id.sequence, u);
  for (const auto& s : slots_)
    if (s.live && s.subscription.match(e)) ++counters_.expected_deliveries;
  publish_times_.emplace(e.id(), rt_->now());
  ++counters_.published;
  slots_[slot].pm->pmcast(std::move(e));
  return true;
}

void ChurnSim::apply(const ScenarioAction& action,
                     std::shared_ptr<Rng> rng) {
  std::visit(
      Overload{
          [&](const CrashNodes& op) {
            for (const auto idx : pick_live(op.count, *rng)) {
              slots_[idx].sync->crash();
              slots_[idx].pm->crash();
              slots_[idx].live = false;
              oracle_->remove_member(slots_[idx].address);
              crashed_pool_.push_back(idx);
              ++counters_.crashes;
            }
            retarget_pending_joiners(*rng);
          },
          [&](const RecoverNodes& op) {
            const std::size_t n =
                std::min(op.count, crashed_pool_.size());
            counters_.skipped += op.count - n;
            for (std::size_t k = 0; k < n; ++k) {
              const std::size_t idx = crashed_pool_.front();
              crashed_pool_.erase(crashed_pool_.begin());
              if (slots_[idx].live) {
                // A Join re-occupied the crashed address in the meantime;
                // nothing left to recover.
                ++counters_.skipped;
                continue;
              }
              const auto contacts = contact_slots();
              if (contacts.empty()) {
                ++counters_.skipped;
                continue;
              }
              const std::size_t contact =
                  contacts[rng->next_below(contacts.size())];
              spawn(idx, /*founder=*/false, sync_pid(contact));
              oracle_->add_member(slots_[idx].address,
                                  slots_[idx].subscription);
              ++counters_.recoveries;
              ++counters_.joins_requested;
            }
          },
          [&](const Join& op) {
            auto vacant = oracle_->vacancies(space_);
            const std::size_t n = std::min(op.count, vacant.size());
            counters_.skipped += op.count - n;
            for (std::size_t k = 0; k < n; ++k) {
              const std::size_t pick = static_cast<std::size_t>(
                  rng->next_below(vacant.size()));
              const Address address = vacant[pick];
              vacant.erase(vacant.begin() +
                           static_cast<std::ptrdiff_t>(pick));
              const auto contacts = contact_slots();
              if (contacts.empty()) {
                ++counters_.skipped;
                continue;
              }
              const std::size_t contact =
                  contacts[rng->next_below(contacts.size())];
              const std::size_t idx = slot_for(interns_->addrs.intern(address));
              spawn(idx, /*founder=*/false, sync_pid(contact));
              oracle_->add_member(address, slots_[idx].subscription);
              ++counters_.joins_requested;
            }
          },
          [&](const Leave& op) {
            for (const auto idx : pick_live(op.count, *rng)) {
              slots_[idx].sync->leave();
              slots_[idx].pm->crash();
              slots_[idx].live = false;
              oracle_->remove_member(slots_[idx].address);
              ++counters_.leaves;
            }
            retarget_pending_joiners(*rng);
          },
          [&](const Partition& op) {
            const std::vector<AddrComponent> side = op.side;
            const ProcessId base = pid_base_;
            const std::size_t capacity = slots_.size();
            const auto in_side = [this, side, base, capacity](ProcessId pid) {
              const std::size_t offset = pid - base;
              const std::size_t slot =
                  offset < capacity ? offset : offset - capacity;
              const AddrComponent top = slots_[slot].address.component(0);
              return std::find(side.begin(), side.end(), top) != side.end();
            };
            // The split is scoped to this group's pid range: traffic of
            // co-hosted groups (other shards) passes untouched.
            const auto in_range = [base, capacity](ProcessId pid) {
              return pid >= base && pid < base + 2 * capacity;
            };
            const auto token = rt_->network().add_link_filter(
                [in_side, in_range](ProcessId from, ProcessId to) {
                  if (!in_range(from) || !in_range(to)) return true;
                  return in_side(from) == in_side(to);
                });
            ++counters_.partitions;
            rt_->scheduler().schedule_at(op.heal_at, [this, token] {
              rt_->network().remove_link_filter(token);
              ++counters_.heals;
            });
          },
          [&](const LossBurst& op) {
            // Epoch-checked restore: for back-to-back bursts the scheduler
            // runs the next burst's set_loss (scheduled early, in play())
            // before this burst's same-time restore (FIFO tie-break), so
            // an unconditional restore would clobber the new ε for its
            // whole window. A stale epoch makes the restore a no-op.
            const std::uint64_t epoch = ++loss_epoch_;
            apply_loss_(op.eps);
            ++counters_.loss_bursts;
            rt_->scheduler().schedule_after(op.duration, [this, epoch] {
              if (epoch != loss_epoch_) return;  // a newer burst took over
              apply_loss_(config_.loss);
              ++counters_.loss_restores;
            });
          },
          [&](const PublishBurst& op) {
            for (std::size_t k = 0; k < op.count; ++k) {
              const SimTime at = action.at + static_cast<SimTime>(k) *
                                                 op.spacing;
              if (at <= rt_->now()) {
                publish_one(*rng);
              } else {
                rt_->scheduler().schedule_at(
                    at, [this, rng] { publish_one(*rng); });
              }
            }
          },
          [&](const LatencyProfile& op) {
            // NOTE: in shard mode the network (and thus the latency model)
            // is runtime-wide, like the base latency config — the owner
            // decides which shard's script carries the profile actions.
            if (op.median > 0) {
              rt_->network().set_latency_model(make_lognormal_latency(
                  LogNormalParams{op.median, op.sigma}, 0, 16 * op.median));
            } else {
              rt_->network().set_latency_model(nullptr);
            }
            ++counters_.latency_profiles;
          },
          [&](const AsymPartition& op) {
            const std::vector<AddrComponent> from_side = op.from_side;
            const std::vector<AddrComponent> to_side = op.to_side;
            const ProcessId base = pid_base_;
            const std::size_t capacity = slots_.size();
            const auto top_of = [this, base, capacity](ProcessId pid) {
              const std::size_t offset = pid - base;
              const std::size_t slot =
                  offset < capacity ? offset : offset - capacity;
              return slots_[slot].address.component(0);
            };
            const auto in_range = [base, capacity](ProcessId pid) {
              return pid >= base && pid < base + 2 * capacity;
            };
            const auto in = [](const std::vector<AddrComponent>& side,
                               AddrComponent c) {
              return std::find(side.begin(), side.end(), c) != side.end();
            };
            // One-directional: only from_side -> to_side messages drop;
            // the reverse direction (and co-hosted shards) pass.
            const auto token = rt_->network().add_link_filter(
                [top_of, in_range, in, from_side, to_side](ProcessId from,
                                                           ProcessId to) {
                  if (!in_range(from) || !in_range(to)) return true;
                  return !(in(from_side, top_of(from)) &&
                           in(to_side, top_of(to)));
                });
            ++counters_.asym_partitions;
            rt_->scheduler().schedule_at(op.heal_at, [this, token] {
              rt_->network().remove_link_filter(token);
              ++counters_.heals;
            });
          },
          [&](const Flap& op) {
            const std::vector<AddrComponent> side = op.side;
            const ProcessId base = pid_base_;
            const std::size_t capacity = slots_.size();
            const auto in_side = [this, side, base, capacity](ProcessId pid) {
              const std::size_t offset = pid - base;
              const std::size_t slot =
                  offset < capacity ? offset : offset - capacity;
              const AddrComponent top = slots_[slot].address.component(0);
              return std::find(side.begin(), side.end(), top) != side.end();
            };
            const auto in_range = [base, capacity](ProcessId pid) {
              return pid >= base && pid < base + 2 * capacity;
            };
            // The down window is a precomputed integer span (at least one
            // tick), so the filter itself runs pure integer arithmetic on
            // the send time — no float drift across the flap's lifetime.
            const SimTime start_at = action.at;
            const SimTime period = op.period;
            const SimTime down_window = std::max<SimTime>(
                1, static_cast<SimTime>(std::llround(
                       op.duty * static_cast<double>(op.period))));
            const auto token = rt_->network().add_link_filter(
                [this, in_side, in_range, start_at, period,
                 down_window](ProcessId from, ProcessId to) {
                  if (!in_range(from) || !in_range(to)) return true;
                  if (in_side(from) == in_side(to)) return true;
                  return (rt_->now() - start_at) % period >= down_window;
                });
            ++counters_.flaps;
            rt_->scheduler().schedule_at(op.until, [this, token] {
              rt_->network().remove_link_filter(token);
              ++counters_.heals;
            });
          },
          [&](const RackFailure& op) {
            // Correlated: every live process in the address zone
            // fail-stops at once — no sampling, no draws.
            ++counters_.rack_failures;
            for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
              Slot& slot = slots_[idx];
              if (!slot.live) continue;
              bool in_zone = true;
              for (std::size_t i = 0; i < op.prefix.size(); ++i) {
                if (slot.address.component(i) != op.prefix[i]) {
                  in_zone = false;
                  break;
                }
              }
              if (!in_zone) continue;
              slot.sync->crash();
              slot.pm->crash();
              slot.live = false;
              oracle_->remove_member(slot.address);
              crashed_pool_.push_back(idx);
              ++counters_.crashes;
            }
            retarget_pending_joiners(*rng);
          },
          [&](const JoinStorm& op) {
            ++counters_.join_storms;
            const SimTime spacing =
                op.count > 1
                    ? op.over / static_cast<SimTime>(op.count - 1)
                    : 0;
            for (std::size_t k = 0; k < op.count; ++k) {
              const SimTime at =
                  action.at + static_cast<SimTime>(k) * spacing;
              if (at <= rt_->now()) {
                do_join(*rng);
              } else {
                rt_->scheduler().schedule_at(
                    at, [this, rng] { do_join(*rng); });
              }
            }
          },
          [&](const DuplicateBurst& op) {
            // Epoch-checked restore, mirroring LossBurst.
            const std::uint64_t epoch = ++dup_epoch_;
            rt_->network().set_duplication(op.prob);
            ++counters_.dup_bursts;
            rt_->scheduler().schedule_after(op.duration, [this, epoch] {
              if (epoch != dup_epoch_) return;
              rt_->network().set_duplication(0.0);
              ++counters_.dup_restores;
            });
          },
          [&](const TraceReplay&) {
            // play() splices traces before scheduling; reaching here means
            // the expansion was bypassed.
            PMC_EXPECTS(false && "TraceReplay must be expanded by play()");
          },
      },
      action.op);
}

std::size_t ChurnSim::live_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_)
    if (slot.live) ++n;
  return n;
}

std::size_t ChurnSim::joined_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_)
    if (slot.live && slot.sync->joined()) ++n;
  return n;
}

GroupSummary ChurnSim::group_summary() const {
  GroupSummary out;
  out.counters = counters_;
  out.live = live_count();
  out.joined = joined_count();
  out.latency_samples = latency_samples_;
  out.latency_total = latency_total_;
  out.latency_max = latency_max_;

  std::uint64_t h = kFnv1aBasis;
  std::uint64_t env_nodes = 0;
  double env_loss_sum = 0.0, env_crash_sum = 0.0;
  for (const auto& slot : slots_) {
    h = fnv1a_u64(h, slot.live ? 1 : 0);
    if (slot.sync != nullptr) {
      const auto& s = slot.sync->stats();
      out.membership_tombstones += s.tombstones;
      out.joins_served += s.joins_served;
      h = fnv1a_u64(h, slot.sync->joined() ? 1 : 0);
      h = fnv1a_u64(h, s.digests_sent);
      h = fnv1a_u64(h, s.updates_sent);
      h = fnv1a_u64(h, s.digest_acks);
      h = fnv1a_u64(h, s.deaths_observed);
      h = fnv1a_u64(h, s.join_retries);
      h = fnv1a_u64(h, s.joins_forwarded);
      h = fnv1a_u64(h, s.joins_served);
      h = fnv1a_u64(h, s.tombstones);
      h = fnv1a_u64(h, s.rebuttals);
      h = fnv1a_u64(h, slot.sync->view().known_processes());
    }
    if (slot.pm != nullptr) {
      const auto& p = slot.pm->stats();
      out.bound_collapsed += p.bound_collapsed;
      // Summed but NOT hashed: the fingerprint's field list is frozen
      // (docs/DETERMINISM.md) — new counters are compared by operator==.
      out.dup_suppressed += p.dup_suppressed;
      out.shed_events += p.shed_events;
      h = fnv1a_u64(h, p.published);
      h = fnv1a_u64(h, p.received);
      h = fnv1a_u64(h, p.delivered);
      h = fnv1a_u64(h, p.gossips_sent);
      h = fnv1a_u64(h, p.rounds_run);
      h = fnv1a_u64(h, p.bound_collapsed);
      h = fnv1a_u64(h, p.leaf_floods);
      h = fnv1a_u64(h, p.digests_sent);
      h = fnv1a_u64(h, p.recoveries);
    }
    if (slot.live && slot.estimator != nullptr) {
      const EnvParams e = slot.estimator->estimate();
      env_loss_sum += e.loss;
      env_crash_sum += e.crash;
      out.env_windows += slot.estimator->feedback_windows() +
                         slot.estimator->churn_windows();
      ++env_nodes;
    }
  }
  if (env_nodes > 0) {
    // Parts-per-million keeps the digest integral (byte-comparable across
    // replays without float formatting concerns).
    out.env_loss_ppm = static_cast<std::uint64_t>(
        std::llround(1e6 * env_loss_sum / static_cast<double>(env_nodes)));
    out.env_crash_ppm = static_cast<std::uint64_t>(
        std::llround(1e6 * env_crash_sum / static_cast<double>(env_nodes)));
  }
  h = fnv1a_u64(h, out.env_loss_ppm);
  h = fnv1a_u64(h, out.env_crash_ppm);
  h = fnv1a_u64(h, out.env_windows);
  h = fnv1a_u64(h, counters_.published);
  h = fnv1a_u64(h, counters_.delivered);
  h = fnv1a_u64(h, latency_samples_);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(latency_total_));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(latency_max_));
  out.fingerprint = h;
  return out;
}

ChurnSummary ChurnSim::summary() const {
  const GroupSummary g = group_summary();
  ChurnSummary out;
  out.counters = g.counters;
  out.live = g.live;
  out.joined = g.joined;
  out.membership_tombstones = g.membership_tombstones;
  out.joins_served = g.joins_served;
  out.latency_samples = g.latency_samples;
  out.latency_total = g.latency_total;
  out.latency_max = g.latency_max;
  out.env_loss_ppm = g.env_loss_ppm;
  out.env_crash_ppm = g.env_crash_ppm;
  out.env_windows = g.env_windows;
  out.bound_collapsed = g.bound_collapsed;
  out.dup_suppressed = g.dup_suppressed;
  out.shed_events = g.shed_events;
  out.network = rt_->network().counters();
  out.scheduler_executed = rt_->scheduler().executed();

  std::uint64_t h = g.fingerprint;
  h = fnv1a_u64(h, out.network.sent);
  h = fnv1a_u64(h, out.network.delivered);
  h = fnv1a_u64(h, out.network.lost);
  h = fnv1a_u64(h, out.network.filtered);
  h = fnv1a_u64(h, out.network.dead_target);
  h = fnv1a_u64(h, out.scheduler_executed);
  out.fingerprint = h;
  return out;
}

}  // namespace pmc
