// Golden wire-format fixtures: one checked-in byte vector per encodable
// MsgKind (1-13). These bytes are the frozen format — if any of these tests
// fails after a code change, the change broke compatibility with deployed
// peers and must either be reverted or ship as a new, explicitly versioned
// format. Also: an encode→decode→re-encode property over randomized
// messages (byte-stability, for the context-free decode and the decode into
// a runtime's tables), and the guarantee that the sim-only Treecast tag is
// rejected at encode time.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baselines/treecast.hpp"
#include "common/rng.hpp"
#include "harness/workload.hpp"
#include "view_rows.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

/// The table behind every fixture's membership rows. It outlives the
/// messages built over it (a RowBatch holds ids, not addresses).
Interns& fixture_interns() {
  static Interns interns;
  return interns;
}

/// A batch of (depth, row) pairs over fixture_interns().
RowBatch fixture_rows(
    std::initializer_list<std::pair<std::uint32_t, ViewRow>> rows) {
  RowBatch batch(fixture_interns());
  for (const auto& [depth, row] : rows)
    push_row(batch, depth, row, fixture_interns());
  return batch;
}

/// The canonical ViewRow shared by the membership fixtures.
ViewRow canonical_row() {
  ViewRow row;
  row.infix = 1;
  row.delegates = {Address::parse("1.2")};
  row.interests = InterestSummary::from(interval_subscription(0.25, 0.5));
  row.process_count = 3;
  row.version = 9;
  row.alive = true;
  return row;
}

/// One canonical instance of every encodable message kind, constructed
/// exactly as when the fixtures were generated.
std::vector<std::pair<std::string, std::shared_ptr<MessageBase>>>
canonical_messages() {
  std::vector<std::pair<std::string, std::shared_ptr<MessageBase>>> out;
  {
    auto m = std::make_shared<GossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(7, 1, 0.25));
    m->rate = 0.5;
    m->round = 2;
    m->depth = 1;
    m->sender = Address::parse("1.1");
    m->piggyback = std::make_shared<const RowBatch>(
        fixture_rows({{2, canonical_row()}}));
    out.emplace_back("Gossip", std::move(m));
  }
  {
    auto m = std::make_shared<MembershipDigestMsg>();
    m->sender = Address::parse("1.2");
    m->sender_pid = 5;
    m->digests = {{1, 0, 10}, {2, 3, 20}};
    out.emplace_back("MembershipDigest", std::move(m));
  }
  {
    auto m = std::make_shared<MembershipUpdateMsg>();
    m->sender = Address::parse("0.1");
    m->rows = fixture_rows({{1, canonical_row()}});
    out.emplace_back("MembershipUpdate", std::move(m));
  }
  {
    auto m = std::make_shared<JoinRequestMsg>();
    m->joiner = Address::parse("3.3");
    m->joiner_pid = 15;
    m->subscription = interval_subscription(0.25, 0.5);
    m->hops = 2;
    out.emplace_back("JoinRequest", std::move(m));
  }
  {
    auto m = std::make_shared<ViewTransferMsg>();
    m->sender = Address::parse("3.0");
    m->rows = fixture_rows({{2, canonical_row()}});
    out.emplace_back("ViewTransfer", std::move(m));
  }
  {
    auto m = std::make_shared<LeaveMsg>();
    m->leaver = Address::parse("2.1");
    out.emplace_back("Leave", std::move(m));
  }
  {
    auto m = std::make_shared<FloodGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 1, 0.3));
    m->round = 4;
    out.emplace_back("FloodGossip", std::move(m));
  }
  {
    auto m = std::make_shared<GenuineGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 2, 0.6));
    m->round = 1;
    out.emplace_back("GenuineGossip", std::move(m));
  }
  {
    auto m = std::make_shared<SuspectQueryMsg>();
    m->sender = Address::parse("0.0");
    m->suspect = Address::parse("0.1");
    out.emplace_back("SuspectQuery", std::move(m));
  }
  {
    auto m = std::make_shared<SuspectReplyMsg>();
    m->sender = Address::parse("0.1");
    m->suspect = Address::parse("0.2");
    m->heard_recently = true;
    out.emplace_back("SuspectReply", std::move(m));
  }
  {
    auto m = std::make_shared<EventDigestMsg>();
    m->ids = {{1, 2}, {3, 4}};
    out.emplace_back("EventDigest", std::move(m));
  }
  {
    auto m = std::make_shared<EventRequestMsg>();
    m->ids = {{5, 6}};
    out.emplace_back("EventRequest", std::move(m));
  }
  {
    auto m = std::make_shared<EventPayloadMsg>();
    m->events.push_back(
        std::make_shared<const Event>(make_event_at(1, 2, 0.5)));
    out.emplace_back("EventPayload", std::move(m));
  }
  return out;
}

/// The frozen bytes, kind name -> hex. Generated once from the canonical
/// messages above; checked in, never regenerated silently.
///
/// DELIBERATE FORMAT BUMP (adaptive ε/τ PR): Gossip gained the explicit
/// `no_regossip` boolean between `depth` and the piggyback flag, replacing
/// the round = uint32::max "do not re-gossip" sentinel the leaf flood used
/// to smuggle through round arithmetic (decoders now also reject rounds
/// beyond a sanity cap, which would have rejected the old sentinel). Every
/// other message kind's bytes are unchanged.
const std::pair<const char*, const char*> kGoldenVectors[] = {
    {"Gossip",
     "01070101017501000000000000d03f000000000000e03f0201000102010101020101"
     "0201020001017501000000000000d03f000000000000e83f0001000000030901"},
    {"MembershipDigest", "02020102050201000a020314"},
    {"MembershipUpdate",
     "03020001010101010201020001017501000000000000d03f000000000000e83f0001"
     "000000030901"},
    {"JoinRequest",
     "040203030f03020201750501000000000000d03f0201750201000000000000e83f"
     "02"},
    {"ViewTransfer",
     "05020300010201010201020001017501000000000000d03f000000000000e83f0001"
     "000000030901"},
    {"Leave", "06020201"},
    {"FloodGossip", "07000101017501333333333333d33f04"},
    {"GenuineGossip", "08000201017501333333333333e33f01"},
    {"SuspectQuery", "09020000020001"},
    {"SuspectReply", "0a02000102000201"},
    {"EventDigest", "0b0201020304"},
    {"EventRequest", "0c010506"},
    {"EventPayload", "0d01010201017501000000000000e03f"},
};

TEST(WireGolden, CoversEveryEncodableKind) {
  // Kinds 1..13 are encodable; 0 (Other) and 14 (Treecast) are not.
  ASSERT_EQ(std::size(kGoldenVectors), 13u);
  const auto messages = canonical_messages();
  ASSERT_EQ(messages.size(), std::size(kGoldenVectors));
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(messages[i].first, kGoldenVectors[i].first);
    // The wire tag must equal the in-memory kind (and hence i + 1).
    const auto bytes = wire::encode_message(*messages[i].second);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(i + 1)) << messages[i].first;
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(messages[i].second->kind));
  }
}

TEST(WireGolden, EncodeMatchesFrozenBytes) {
  const auto messages = canonical_messages();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto bytes = wire::encode_message(*messages[i].second);
    EXPECT_EQ(to_hex(bytes), kGoldenVectors[i].second)
        << "wire format changed for " << messages[i].first
        << " — this breaks deployed peers";
  }
}

TEST(WireGolden, FrozenBytesStillDecode) {
  // The decoder must accept bytes produced by any past version, and
  // re-encoding the decoded message must reproduce them exactly.
  for (const auto& [name, hex] : kGoldenVectors) {
    const auto bytes = from_hex(hex);
    MessagePtr decoded;
    ASSERT_NO_THROW(decoded = wire::decode_message(bytes)) << name;
    ASSERT_NE(decoded, nullptr) << name;
    EXPECT_EQ(to_hex(wire::encode_message(*decoded)), hex) << name;
  }
}

TEST(WireGolden, FrozenBytesDecodeIntoATable) {
  // Decoding into a runtime's tables reads the same bytes: every frozen
  // vector re-encodes byte-identically from the rows' pooled handles, and
  // a second decode adds nothing to the table.
  Interns into;
  for (const auto& [name, hex] : kGoldenVectors) {
    const auto bytes = from_hex(hex);
    MessagePtr decoded;
    ASSERT_NO_THROW(decoded = wire::decode_message(bytes, into)) << name;
    ASSERT_NE(decoded, nullptr) << name;
    EXPECT_EQ(to_hex(wire::encode_message(*decoded)), hex) << name;
  }
  EXPECT_GT(into.addrs.size(), 0u);
  EXPECT_GT(into.summaries.size(), 0u);
  const std::size_t addrs = into.addrs.size();
  const std::size_t summaries = into.summaries.size();
  for (const auto& [name, hex] : kGoldenVectors) {
    const auto decoded = wire::decode_message(from_hex(hex), into);
    EXPECT_EQ(to_hex(wire::encode_message(*decoded)), hex) << name;
  }
  EXPECT_EQ(into.addrs.size(), addrs);
  EXPECT_EQ(into.summaries.size(), summaries);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property
// ---------------------------------------------------------------------------

Address random_address(Rng& rng) {
  std::vector<AddrComponent> comps(1 + rng.next_below(3));
  for (auto& c : comps) c = static_cast<AddrComponent>(rng.next_below(100));
  return Address(std::move(comps));
}

Event random_event(Rng& rng) {
  Event e(EventId{rng.next_u64() >> 40, rng.next_u64() >> 40});
  const std::size_t attrs = rng.next_below(4);
  for (std::size_t i = 0; i < attrs; ++i) {
    const std::string name(1, static_cast<char>('a' + i));
    switch (rng.next_below(3)) {
      case 0: e.with(name, static_cast<std::int64_t>(rng.next_below(1000)));
        break;
      case 1: e.with(name, rng.next_double()); break;
      default: e.with(name, rng.bernoulli(0.5) ? "x" : "yy"); break;
    }
  }
  return e;
}

ViewRow random_row(Rng& rng) {
  ViewRow row;
  row.infix = static_cast<AddrComponent>(rng.next_below(50));
  const std::size_t delegates = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < delegates; ++i)
    row.delegates.push_back(random_address(rng));
  row.interests =
      InterestSummary::from(interval_subscription(rng.next_double(), 0.3));
  row.process_count = rng.next_below(1000);
  row.version = rng.next_below(100000);
  row.alive = rng.bernoulli(0.8);
  return row;
}

std::shared_ptr<MessageBase> random_message(Rng& rng) {
  switch (1 + rng.next_below(13)) {
    case 1: {
      auto m = std::make_shared<GossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->rate = rng.next_double();
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      m->depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
      m->no_regossip = rng.bernoulli(0.2);
      if (rng.bernoulli(0.5)) {
        m->sender = random_address(rng);
        const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
        m->piggyback = std::make_shared<const RowBatch>(
            fixture_rows({{depth, random_row(rng)}}));
      }
      return m;
    }
    case 2: {
      auto m = std::make_shared<MembershipDigestMsg>();
      m->sender = random_address(rng);
      m->sender_pid = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t n = rng.next_below(5);
      for (std::size_t i = 0; i < n; ++i)
        m->digests.push_back(
            RowDigest{1 + static_cast<std::uint32_t>(rng.next_below(4)),
                      static_cast<AddrComponent>(rng.next_below(50)),
                      rng.next_below(100000)});
      return m;
    }
    case 3: {
      auto m = std::make_shared<MembershipUpdateMsg>();
      m->sender = random_address(rng);
      const std::size_t n = rng.next_below(4);
      m->rows = RowBatch(fixture_interns());
      for (std::size_t i = 0; i < n; ++i) {
        const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
        push_row(m->rows, depth, random_row(rng), fixture_interns());
      }
      return m;
    }
    case 4: {
      auto m = std::make_shared<JoinRequestMsg>();
      m->joiner = random_address(rng);
      m->joiner_pid = static_cast<ProcessId>(rng.next_below(1000));
      m->subscription = interval_subscription(rng.next_double(), 0.4);
      m->hops = static_cast<std::uint32_t>(rng.next_below(16));
      return m;
    }
    case 5: {
      auto m = std::make_shared<ViewTransferMsg>();
      m->sender = random_address(rng);
      const std::size_t n = rng.next_below(4);
      m->rows = RowBatch(fixture_interns());
      for (std::size_t i = 0; i < n; ++i) {
        const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
        push_row(m->rows, depth, random_row(rng), fixture_interns());
      }
      return m;
    }
    case 6: {
      auto m = std::make_shared<LeaveMsg>();
      m->leaver = random_address(rng);
      return m;
    }
    case 7: {
      auto m = std::make_shared<FloodGossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      return m;
    }
    case 8: {
      auto m = std::make_shared<GenuineGossipMsg>();
      m->event = std::make_shared<const Event>(random_event(rng));
      m->round = static_cast<std::uint32_t>(rng.next_below(64));
      return m;
    }
    case 9: {
      auto m = std::make_shared<SuspectQueryMsg>();
      m->sender = random_address(rng);
      m->suspect = random_address(rng);
      return m;
    }
    case 10: {
      auto m = std::make_shared<SuspectReplyMsg>();
      m->sender = random_address(rng);
      m->suspect = random_address(rng);
      m->heard_recently = rng.bernoulli(0.5);
      return m;
    }
    case 11: {
      auto m = std::make_shared<EventDigestMsg>();
      const std::size_t n = rng.next_below(6);
      for (std::size_t i = 0; i < n; ++i)
        m->ids.push_back(EventId{rng.next_below(1000), rng.next_below(1000)});
      return m;
    }
    case 12: {
      auto m = std::make_shared<EventRequestMsg>();
      const std::size_t n = rng.next_below(6);
      for (std::size_t i = 0; i < n; ++i)
        m->ids.push_back(EventId{rng.next_below(1000), rng.next_below(1000)});
      return m;
    }
    default: {
      auto m = std::make_shared<EventPayloadMsg>();
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i)
        m->events.push_back(std::make_shared<const Event>(random_event(rng)));
      return m;
    }
  }
}

TEST(WireGolden, RandomizedRoundTripIsByteStable) {
  // encode → decode → encode must be the identity on bytes: the decoder
  // loses nothing and the encoder is deterministic. (One decode may
  // canonicalize predicate trees, so the property is asserted from the
  // first re-encoding on, and additionally checked to be idempotent.)
  Rng rng(0x601de45ULL);
  for (int trial = 0; trial < 500; ++trial) {
    const auto msg = random_message(rng);
    const auto b1 = wire::encode_message(*msg);
    const auto m2 = wire::decode_message(b1);
    ASSERT_NE(m2, nullptr);
    EXPECT_EQ(m2->kind, msg->kind);
    const auto b2 = wire::encode_message(*m2);
    EXPECT_EQ(to_hex(b2), to_hex(b1)) << "trial " << trial;
    const auto m3 = wire::decode_message(b2);
    const auto b3 = wire::encode_message(*m3);
    EXPECT_EQ(to_hex(b3), to_hex(b2)) << "trial " << trial;
    // The into-table decode re-encodes to the same bytes.
    Interns into;
    const auto m4 = wire::decode_message(b2, into);
    EXPECT_EQ(to_hex(wire::encode_message(*m4)), to_hex(b2))
        << "trial " << trial;
  }
}

/// The row layout restated from the value form, field by field, without
/// the codec's row encoder: the oracle the handle encoder is checked
/// against.
void encode_value_row(Writer& w, const ViewRow& row) {
  w.varint(row.infix);
  w.varint(row.delegates.size());
  for (const Address& d : row.delegates) {
    w.varint(d.depth());
    for (const AddrComponent c : d.components()) w.varint(c);
  }
  wire::encode(w, row.interests);
  w.varint(row.process_count);
  w.varint(row.version);
  w.boolean(row.alive);
}

TEST(WireGolden, HandleBatchEncodesLikeItsRowsAtWidth) {
  // The simulation ships rows as handles (RowBatch over the sender's
  // Interns); the bytes must be exactly those of the value rows the
  // handles stand for, encoded one by one in the depth-tagged layout by
  // an independent oracle — over wide, multi-depth randomized views, and
  // again after a decode (a batch over its own address list).
  Rng rng(0xba7c4e5ULL);
  for (int trial = 0; trial < 60; ++trial) {
    Interns interns;
    std::vector<DepthView> views(1 + rng.next_below(4));
    for (auto& view : views) {
      view.bind(interns);
      const std::size_t rows = rng.next_below(64);
      for (std::size_t i = 0; i < rows; ++i) upsert_row(view, random_row(rng));
    }
    MembershipUpdateMsg update;
    update.sender = random_address(rng);
    update.rows = RowBatch(interns);
    Writer expected;
    expected.u8(static_cast<std::uint8_t>(wire::MessageTag::MembershipUpdate));
    wire::encode(expected, update.sender);
    std::size_t total = 0;
    for (const auto& view : views) total += view.size();
    expected.varint(total);
    for (std::size_t depth = 1; depth <= views.size(); ++depth) {
      const DepthView& view = views[depth - 1];
      for (std::size_t i = 0; i < view.size(); ++i) {
        update.rows.push(static_cast<std::uint32_t>(depth), view, i);
        expected.varint(depth);
        encode_value_row(expected, materialize_row(view, i));
      }
    }
    const auto bytes = wire::encode_message(update);
    ASSERT_EQ(to_hex(bytes), to_hex(expected.data())) << "trial " << trial;
    const auto decoded = wire::decode_message(bytes);
    EXPECT_EQ(to_hex(wire::encode_message(*decoded)), to_hex(bytes))
        << "trial " << trial;
  }
}

TEST(WireGolden, NoRegossipFlagRoundTrips) {
  // The leaf flood's "do not re-gossip" state travels as an explicit flag
  // (it used to be round = uint32::max, which leaked a sentinel into round
  // arithmetic).
  auto m = std::make_shared<GossipMsg>();
  m->event = std::make_shared<const Event>(make_event_at(3, 9, 0.75));
  m->rate = 1.0;
  m->round = 0;
  m->depth = 2;
  m->no_regossip = true;
  const auto bytes = wire::encode_message(*m);
  const auto decoded = wire::decode_message(bytes);
  ASSERT_EQ(decoded->kind, MsgKind::Gossip);
  const auto& gossip = static_cast<const GossipMsg&>(*decoded);
  EXPECT_TRUE(gossip.no_regossip);
  EXPECT_EQ(gossip.round, 0u);
  EXPECT_EQ(to_hex(wire::encode_message(gossip)), to_hex(bytes));
}

TEST(WireGolden, SentinelRoundsRejectedBothWays) {
  // Rounds are O(log n); anything near integer range is a corrupted frame
  // or the retired sentinel. The encoder refuses to emit it and the
  // decoder refuses to accept it, so sentinel-sized values can never reach
  // a live bound comparison.
  auto m = std::make_shared<GossipMsg>();
  m->event = std::make_shared<const Event>(make_event_at(3, 9, 0.75));
  m->rate = 0.5;
  m->round = std::numeric_limits<std::uint32_t>::max();
  m->depth = 1;
  EXPECT_THROW(wire::encode_message(*m), std::logic_error);

  m->round = 1;
  auto bytes = wire::encode_message(*m);
  // Patch the round varint (1 byte, right after the 8-byte rate f64 that
  // follows the 14-byte single-attribute event) to a 5-byte uint32::max
  // varint.
  const std::size_t round_at = 1 + 14 + 8;
  ASSERT_EQ(bytes[round_at], 0x01);
  std::vector<std::uint8_t> patched(bytes.begin(),
                                    bytes.begin() +
                                        static_cast<std::ptrdiff_t>(round_at));
  for (int i = 0; i < 4; ++i) patched.push_back(0xff);
  patched.push_back(0x0f);
  patched.insert(patched.end(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(round_at) + 1,
                 bytes.end());
  EXPECT_THROW(wire::decode_message(patched), DecodeError);
}

TEST(WireGolden, SimOnlyTreecastRejectedAtEncode) {
  // Treecast (kind 14) deliberately has no wire encoding: it exists only as
  // a simulation baseline. encode_message must refuse it rather than emit a
  // tag deployed peers would misparse.
  TreecastMsg msg;
  msg.event = std::make_shared<const Event>(make_event_at(0, 1, 0.5));
  msg.depth = 1;
  EXPECT_THROW(wire::encode_message(msg), std::logic_error);
}

TEST(WireGolden, UntaggedOtherRejectedAtEncode) {
  struct Plain final : MessageBase {};  // kind == MsgKind::Other
  EXPECT_THROW(wire::encode_message(Plain{}), std::logic_error);
}

}  // namespace
}  // namespace pmc
