#include "probe.hpp"

#include <bit>
#include <cmath>
#include <memory>

#include "wire/messages.hpp"

namespace perfbench {

void LogHistogram::add(std::uint64_t ns) {
  if (ns == 0) ns = 1;
  const unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - 1;
  const std::uint64_t mask = (std::uint64_t{1} << kSubBits) - 1;
  const std::uint64_t sub = octave >= kSubBits
                                ? (ns >> (octave - kSubBits)) & mask
                                : (ns << (kSubBits - octave)) & mask;
  ++buckets_[(static_cast<std::size_t>(octave) << kSubBits) | sub];
  ++count_;
}

double LogHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      const auto octave = static_cast<double>(i >> kSubBits);
      const auto sub = static_cast<double>(i & ((1u << kSubBits) - 1));
      const double lo = std::exp2(octave) *
                        (1.0 + sub / static_cast<double>(1u << kSubBits));
      const double width = std::exp2(octave) / (1u << kSubBits);
      return (lo + width / 2.0) / 1000.0;
    }
  }
  return 0.0;
}

void NetTrace::merge_counts(const NetTrace& other) {
  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    msgs[k] += other.msgs[k];
    bytes[k] += other.bytes[k];
  }
  encode_s += other.encode_s;
  decode_s += other.decode_s;
  wire_msgs += other.wire_msgs;
  wire_bytes += other.wire_bytes;
}

void NetTrace::on_send(pmc::Scheduler& sched, pmc::ProcessId from,
                       pmc::ProcessId to) {
  sends.push_back({static_cast<std::uint32_t>(sched.now()), from, to});
  if (pending_) attribute(pending_from_);
  pending_ = true;
  pending_from_ = from;
}

void NetTrace::on_transcode(std::size_t kind, std::uint64_t size) {
  pending_ = false;
  last_from_ = pending_from_;
  last_kind_ = kind;
  last_size_ = size;
  ++msgs[kind];
  bytes[kind] += size;
}

void NetTrace::flush() {
  if (pending_) attribute(pending_from_);
  pending_ = false;
}

void NetTrace::attribute(pmc::ProcessId from) {
  if (from == last_from_) {
    ++msgs[last_kind_];
    bytes[last_kind_] += last_size_;
  } else {
    ++msgs[static_cast<std::size_t>(pmc::MsgKind::Other)];
  }
}

void install_probe(pmc::Runtime& rt, bool wire, NetTrace& trace) {
  pmc::Network& net = rt.network();
  pmc::Scheduler& sched = rt.scheduler();
  net.set_link_filter([&trace, &sched](pmc::ProcessId from,
                                       pmc::ProcessId to) {
    trace.on_send(sched, from, to);
    return true;
  });
  net.set_transcoder([&trace, wire](const pmc::MessagePtr& msg) {
    const auto kind = static_cast<std::size_t>(msg->kind);
    if (!wire) {
      trace.on_transcode(kind, pmc::wire::encode_message(*msg).size());
      return msg;
    }
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = pmc::wire::encode_message(*msg);
    const auto t1 = Clock::now();
    pmc::MessagePtr decoded = pmc::wire::decode_message(bytes);
    const auto t2 = Clock::now();
    trace.encode_s += std::chrono::duration<double>(t1 - t0).count();
    trace.decode_s += std::chrono::duration<double>(t2 - t1).count();
    ++trace.wire_msgs;
    trace.wire_bytes += bytes.size();
    trace.on_transcode(kind, bytes.size());
    return decoded;
  });
}

void remove_probe(pmc::Runtime& rt, NetTrace& trace) {
  rt.network().set_link_filter(nullptr);
  rt.network().set_transcoder(nullptr);
  trace.flush();
}

namespace {

std::uint64_t timed_step(pmc::Scheduler& sched, bool& more) {
  const auto t0 = Clock::now();
  more = sched.step();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void ignore_message(void*, pmc::ProcessId, const pmc::MessagePtr&) {}

}  // namespace

void step_until(pmc::Scheduler& sched, pmc::SimTime deadline,
                LogHistogram& steps) {
  bool reached = false;
  sched.schedule_at(deadline, [&reached] { reached = true; });
  bool more = true;
  while (!reached && more) steps.add(timed_step(sched, more));
  // Events at exactly `deadline` queued behind the sentinel.
  sched.run_until(deadline);
}

void step_until_idle(pmc::Scheduler& sched, LogHistogram& steps) {
  bool more = true;
  while (more) {
    const std::uint64_t ns = timed_step(sched, more);
    if (more) steps.add(ns);
  }
}

double replay_sends(const std::vector<SendRecord>& sends,
                    const pmc::NetworkConfig& net, pmc::ProcessId pid_base,
                    std::size_t pid_count, pmc::SchedulerTuning tuning) {
  pmc::Runtime rt(net, 0x5e9d5eedULL ^ pid_base, tuning);
  rt.network().reserve_range(pid_base, pid_count);
  for (std::size_t i = 0; i < pid_count; ++i)
    rt.network().attach(pid_base + static_cast<pmc::ProcessId>(i), nullptr,
                        &ignore_message);
  const auto payload = std::make_shared<const pmc::MessageBase>();
  const auto t0 = Clock::now();
  for (const SendRecord& s : sends) {
    if (s.at_us > rt.now()) rt.run_until(s.at_us);
    rt.network().send(s.from, s.to, payload);
  }
  rt.run_until_idle();
  return seconds_since(t0);
}

}  // namespace perfbench
