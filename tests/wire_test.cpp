#include "wire/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "harness/workload.hpp"
#include "view_rows.hpp"

namespace pmc {
namespace {

template <typename T, typename EncodeFn, typename DecodeFn>
T round_trip(const T& value, EncodeFn&& enc, DecodeFn&& dec) {
  Writer w;
  enc(w, value);
  Reader r(w.data());
  T out = dec(r);
  r.expect_end();
  return out;
}

TEST(Codec, VarintRoundTrip) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        0xffffffffULL, ~0ULL}) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Codec, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, SignedVarintRoundTrip) {
  const std::int64_t cases[] = {
      0, 1, -1, 63, -64, 1000000, -1000000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    Writer w;
    w.svarint(v);
    Reader r(w.data());
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Codec, DoubleRoundTripExact) {
  for (const double v : {0.0, -0.0, 1.5, -3.25e300, 1e-308,
                         std::numeric_limits<double>::infinity()}) {
    Writer w;
    w.f64(v);
    Reader r(w.data());
    const double out = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Codec, StringRoundTrip) {
  Writer w;
  w.str("hello");
  w.str("");
  w.str(std::string("\0binary\xff", 8));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str().size(), 8u);
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.f64(1.0);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    Reader r(std::span(w.data().data(), cut));
    EXPECT_THROW(r.f64(), DecodeError);
  }
}

TEST(Codec, OverlongVarintThrows) {
  std::vector<std::uint8_t> bad(11, 0x80);
  Reader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Codec, BadBooleanThrows) {
  const std::uint8_t bad[] = {7};
  Reader r(bad);
  EXPECT_THROW(r.boolean(), DecodeError);
}

TEST(Codec, StringLengthBeyondInputThrows) {
  Writer w;
  w.varint(100);
  w.u8('x');
  Reader r(w.data());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(WireValue, AllKindsRoundTrip) {
  const Value values[] = {Value(42), Value(-7), Value(2.5), Value("Bob")};
  for (const Value& v : values) {
    const auto out = round_trip(v, [](Writer& w, const Value& x) {
      wire::encode(w, x);
    }, [](Reader& r) { return wire::decode_value(r); });
    EXPECT_EQ(out, v);
  }
}

TEST(WireEvent, RoundTripPreservesIdAndAttributes) {
  Event e(EventId{3, 99});
  e.with("b", 2).with("c", 41.5).with("e", "Bob").with("z", -5);
  const auto out = round_trip(e, [](Writer& w, const Event& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_event(r); });
  EXPECT_EQ(out.id(), e.id());
  EXPECT_EQ(out.size(), e.size());
  EXPECT_EQ(out.get("b"), e.get("b"));
  EXPECT_EQ(out.get("e"), e.get("e"));
}

TEST(WirePredicate, SemanticRoundTrip) {
  const char* texts[] = {
      "true",
      "false",
      "b == 2",
      "b > 1 && 20.0 < c && c < 30.0 && z <= 50000",
      "e == \"Bob\" || e == \"Tom\"",
      "!(b == 2 && e == \"x\")",
      "(a == 1 || a == 2) && (b == 3 || b == 4)",
  };
  Rng rng(5);
  for (const auto* text : texts) {
    const auto original = Subscription::parse(text);
    const auto decoded = round_trip(
        original,
        [](Writer& w, const Subscription& s) { wire::encode(w, s); },
        [](Reader& r) { return wire::decode_subscription(r); });
    for (int trial = 0; trial < 200; ++trial) {
      Event e;
      e.with("a", static_cast<std::int64_t>(rng.next_below(5)))
          .with("b", static_cast<std::int64_t>(rng.next_below(6)))
          .with("c", rng.next_double() * 60.0)
          .with("z", static_cast<std::int64_t>(rng.next_below(100000)))
          .with("e", rng.bernoulli(0.5) ? "Bob" : "Tom");
      EXPECT_EQ(decoded.match(e), original.match(e)) << text;
    }
  }
}

TEST(WirePredicate, DepthBombRejected) {
  // 100 nested Not tags exceed the recursion limit.
  Writer w;
  for (int i = 0; i < 100; ++i) w.u8(5);
  w.u8(0);
  Reader r(w.data());
  EXPECT_THROW(wire::decode_predicate(r), DecodeError);
}

TEST(WireInterval, RoundTripPreservesBounds) {
  const auto iv = Interval::half_open(0.25, 0.75);
  const auto out = round_trip(iv, [](Writer& w, const Interval& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_interval(r); });
  EXPECT_EQ(out, iv);
}

TEST(WireIntervalSet, RoundTripCanonical) {
  IntervalSet set;
  set.insert(Interval::closed(0.0, 1.0));
  set.insert(Interval::half_open(5.0, 7.0));
  const auto out = round_trip(set, [](Writer& w, const IntervalSet& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_interval_set(r); });
  EXPECT_EQ(out, set);
}

TEST(WireSummary, ExactRoundTrip) {
  InterestSummary s = InterestSummary::from(
      Subscription::parse("b > 3 && 10.0 < c && c < 220.0"));
  s.merge(InterestSummary::from(Subscription::parse("u >= 0.1 && u < 0.4")));
  s.merge(InterestSummary::from(Subscription::parse("e == \"Bob\"")));
  s.merge(InterestSummary::from(Subscription::parse("e != \"x\"")));  // opaque
  const auto out = round_trip(s, [](Writer& w, const InterestSummary& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_summary(r); });
  // Structural equality except opaque predicates (pointer identity differs),
  // so compare semantics over a grid.
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    Event e;
    e.with("b", static_cast<std::int64_t>(rng.next_below(8)))
        .with("c", rng.next_double() * 250.0)
        .with("u", rng.next_double())
        .with("e", rng.bernoulli(0.3) ? "Bob" : "x");
    EXPECT_EQ(out.match(e), s.match(e));
  }
  EXPECT_EQ(out.is_wildcard(), s.is_wildcard());
  EXPECT_EQ(out.numeric_unions(), s.numeric_unions());
  EXPECT_EQ(out.string_unions(), s.string_unions());
}

TEST(WireAddress, RoundTrip) {
  const auto a = Address::parse("128.178.73.3");
  const auto out = round_trip(a, [](Writer& w, const Address& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_address(r); });
  EXPECT_EQ(out, a);
}

TEST(WireRowBatch, OneRowRoundTrip) {
  Interns interns;
  ViewRow row;
  row.infix = 73;
  row.delegates = {Address::parse("128.178.73.3"),
                   Address::parse("128.178.73.17")};
  row.interests = InterestSummary::from(Subscription::parse("b > 0"));
  row.process_count = 21;
  row.version = 99;
  row.alive = false;
  RowBatch batch(interns);
  push_row(batch, 2, row, interns);
  const auto decoded = round_trip(batch, [](Writer& w, const RowBatch& x) {
    wire::encode(w, x);
  }, [](Reader& r) { return wire::decode_row_batch(r); });
  EXPECT_EQ(decoded.interns(), nullptr);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded.depth(0), 2u);
  const ViewRow out = batch_row(decoded, 0);
  EXPECT_EQ(out.infix, row.infix);
  EXPECT_EQ(out.delegates, row.delegates);
  EXPECT_EQ(out.process_count, row.process_count);
  EXPECT_EQ(out.version, row.version);
  EXPECT_EQ(out.alive, row.alive);
  EXPECT_EQ(out.interests.numeric_unions(), row.interests.numeric_unions());

  // Into a table: bound to it, ids and summary are the table's.
  Writer w;
  wire::encode(w, batch);
  Interns into;
  Reader r(w.data());
  const RowBatch pooled = wire::decode_row_batch(r, into);
  r.expect_end();
  EXPECT_EQ(pooled.interns(), &into);
  ASSERT_EQ(pooled.size(), 1u);
  ASSERT_EQ(pooled.delegates(0).size(), 2u);
  EXPECT_EQ(pooled.delegates(0)[1], into.addrs.find(row.delegates[1]));
  EXPECT_EQ(pooled.interests_ptr(0), into.summaries.intern(row.interests));
  EXPECT_EQ(batch_row(pooled, 0).delegates, row.delegates);
}

TEST(WireMessage, GossipEnvelope) {
  GossipMsg msg;
  msg.event = std::make_shared<const Event>(make_event_at(1, 2, 0.5));
  msg.rate = 0.25;
  msg.round = 3;
  msg.depth = 2;
  const auto bytes = wire::encode_message(msg);
  const auto decoded = wire::decode_message(bytes);
  const auto* out = dynamic_cast<const GossipMsg*>(decoded.get());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->event->id(), msg.event->id());
  EXPECT_DOUBLE_EQ(out->rate, 0.25);
  EXPECT_EQ(out->round, 3u);
  EXPECT_EQ(out->depth, 2u);
}

TEST(WireMessage, MembershipDigestEnvelope) {
  MembershipDigestMsg msg;
  msg.sender = Address::parse("1.2.3");
  msg.sender_pid = 7;
  msg.digests = {{1, 0, 10}, {2, 5, 20}, {3, 9, 30}};
  const auto bytes = wire::encode_message(msg);
  const auto decoded = wire::decode_message(bytes);
  const auto* out = dynamic_cast<const MembershipDigestMsg*>(decoded.get());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sender, msg.sender);
  ASSERT_EQ(out->digests.size(), 3u);
  EXPECT_EQ(out->digests[1].infix, 5);
  EXPECT_EQ(out->digests[2].version, 30u);
}

TEST(WireMessage, AllEnvelopesRoundTrip) {
  Interns interns;  // the membership rows' table; outlives the messages
  std::vector<std::shared_ptr<MessageBase>> messages;
  {
    auto m = std::make_shared<MembershipUpdateMsg>();
    m->sender = Address::parse("0.1");
    ViewRow row;
    row.infix = 1;
    row.delegates = {Address::parse("0.1")};
    row.interests = InterestSummary::from(Subscription());
    row.process_count = 1;
    row.version = 5;
    m->rows = RowBatch(interns);
    push_row(m->rows, 2, row, interns);
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<JoinRequestMsg>();
    m->joiner = Address::parse("3.3");
    m->joiner_pid = 15;
    m->subscription = Subscription::parse("u < 0.5");
    m->hops = 2;
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<ViewTransferMsg>();
    m->sender = Address::parse("3.0");
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<LeaveMsg>();
    m->leaver = Address::parse("2.1");
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<FloodGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 1, 0.3));
    m->round = 4;
    messages.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<GenuineGossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(0, 2, 0.6));
    m->round = 1;
    messages.push_back(std::move(m));
  }
  for (const auto& msg : messages) {
    const auto bytes = wire::encode_message(*msg);
    EXPECT_NO_THROW({
      const auto decoded = wire::decode_message(bytes);
      EXPECT_NE(decoded, nullptr);
    });
  }
}

TEST(WireMessage, UnknownTypeRejectedAtEncode) {
  struct Alien final : MessageBase {};
  EXPECT_THROW(wire::encode_message(Alien{}), std::logic_error);
}

TEST(WireMessage, TrailingBytesRejected) {
  LeaveMsg msg;
  msg.leaver = Address::parse("1.1");
  auto bytes = wire::encode_message(msg);
  bytes.push_back(0x00);
  EXPECT_THROW(wire::decode_message(bytes), DecodeError);
}

TEST(WireMessage, FuzzRandomBytesNeverCrash) {
  // Decoders must reject garbage with DecodeError, never UB/crash.
  Rng rng(0xf0220ULL);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      (void)wire::decode_message(junk);
    } catch (const DecodeError&) {
      // expected for almost every input
    }
  }
  SUCCEED();
}

TEST(WireMessage, FuzzTruncationsOfValidMessage) {
  Interns interns;
  MembershipUpdateMsg msg;
  msg.sender = Address::parse("1.2.3");
  ViewRow row;
  row.infix = 2;
  row.delegates = {Address::parse("1.2.3")};
  row.interests = InterestSummary::from(Subscription::parse("b > 0"));
  row.process_count = 3;
  row.version = 8;
  msg.rows = RowBatch(interns);
  push_row(msg.rows, 1, row, interns);
  const auto bytes = wire::encode_message(msg);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)wire::decode_message(std::span(bytes.data(), cut));
      // Some prefixes may decode to a shorter valid message only if the
      // format were self-delimiting per field — with expect_end they can't.
      FAIL() << "truncation at " << cut << " decoded successfully";
    } catch (const DecodeError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Decoding into a runtime's tables
// ---------------------------------------------------------------------------

/// A three-row update over `interns`: two rows share one summary, one row
/// has two delegates, one is a tombstone.
MembershipUpdateMsg three_row_update(Interns& interns) {
  MembershipUpdateMsg msg;
  msg.sender = Address::parse("1.2.3");
  msg.rows = RowBatch(interns);
  ViewRow a;
  a.infix = 2;
  a.delegates = {Address::parse("1.2.3"), Address::parse("1.2.7")};
  a.interests = InterestSummary::from(Subscription::parse("b > 0"));
  a.process_count = 3;
  a.version = 8;
  ViewRow b = a;
  b.infix = 5;
  b.delegates = {Address::parse("1.5.1")};
  b.version = 4;
  b.alive = false;
  ViewRow c;
  c.infix = 7;
  c.delegates = {Address::parse("1.2.7")};
  c.interests = InterestSummary::from(Subscription::parse("u < 0.5"));
  c.process_count = 1;
  c.version = 11;
  push_row(msg.rows, 1, a, interns);
  push_row(msg.rows, 2, b, interns);
  push_row(msg.rows, 3, c, interns);
  return msg;
}

TEST(WireIntoTable, RowsBecomeTheTablesHandles) {
  Interns sender;
  const MembershipUpdateMsg msg = three_row_update(sender);
  const auto bytes = wire::encode_message(msg);
  Interns into;
  into.addrs.intern(Address::parse("9.9.9"));  // ids need not match sender's
  const auto decoded = wire::decode_message(bytes, into);
  const auto& rows = static_cast<const MembershipUpdateMsg&>(*decoded).rows;
  EXPECT_EQ(rows.interns(), &into);
  ASSERT_EQ(rows.size(), msg.rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const ViewRow want = batch_row(msg.rows, k);
    ASSERT_EQ(rows.delegates(k).size(), want.delegates.size()) << k;
    for (std::size_t j = 0; j < want.delegates.size(); ++j)
      EXPECT_EQ(rows.delegates(k)[j], into.addrs.find(want.delegates[j]))
          << "row " << k << " delegate " << j;
    EXPECT_EQ(rows.interests_ptr(k), into.summaries.intern(want.interests))
        << "row " << k;
    const ViewRow got = batch_row(rows, k);
    EXPECT_EQ(got.infix, want.infix);
    EXPECT_EQ(got.delegates, want.delegates);
    EXPECT_EQ(got.process_count, want.process_count);
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(got.alive, want.alive);
  }
  // Rows 0 and 1 carry equal summaries: one pooled object.
  EXPECT_EQ(rows.interests_ptr(0), rows.interests_ptr(1));
  EXPECT_EQ(wire::encode_message(*decoded), bytes);

  // Decoded into the sender's own table, the rows are the sender's
  // handles exactly.
  const auto same = wire::decode_message(bytes, sender);
  const auto& own = static_cast<const MembershipUpdateMsg&>(*same).rows;
  for (std::size_t k = 0; k < own.size(); ++k) {
    EXPECT_TRUE(std::ranges::equal(own.delegates(k), msg.rows.delegates(k)));
    EXPECT_EQ(own.interests_ptr(k), msg.rows.interests_ptr(k));
  }
}

TEST(WireIntoTable, RepeatedDecodesDoNotGrowTheTable) {
  Interns sender;
  const auto bytes = wire::encode_message(three_row_update(sender));
  Interns into;
  (void)wire::decode_message(bytes, into);
  const std::size_t addrs = into.addrs.size();
  const std::size_t summaries = into.summaries.size();
  EXPECT_EQ(addrs, 3u);
  EXPECT_EQ(summaries, 2u);
  std::vector<MessagePtr> in_flight;
  for (int i = 0; i < 1000; ++i) {
    in_flight.push_back(wire::decode_message(bytes, into));
    ASSERT_EQ(into.addrs.size(), addrs) << "decode " << i;
    ASSERT_EQ(into.summaries.size(), summaries) << "decode " << i;
  }
  // Every in-flight frame shares the pooled summary.
  const auto& first =
      static_cast<const MembershipUpdateMsg&>(*in_flight.front()).rows;
  const auto& last =
      static_cast<const MembershipUpdateMsg&>(*in_flight.back()).rows;
  EXPECT_EQ(first.interests_ptr(2), last.interests_ptr(2));
}

TEST(WireIntoTable, FuzzTruncationsStillThrow) {
  Interns sender;
  const auto bytes = wire::encode_message(three_row_update(sender));
  Interns into;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)wire::decode_message(std::span(bytes.data(), cut), into);
      FAIL() << "truncation at " << cut << " decoded successfully";
    } catch (const DecodeError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Senders named by handle
// ---------------------------------------------------------------------------

/// One message of every kind that names its sender, each naming `sender`;
/// rows, where a kind carries them, are over `rows`.
std::vector<std::shared_ptr<MessageBase>> messages_from(const SenderRef& sender,
                                                        Interns& rows) {
  std::vector<std::shared_ptr<MessageBase>> out;
  {
    auto m = std::make_shared<GossipMsg>();
    m->event = std::make_shared<const Event>(make_event_at(7, 1, 0.25));
    m->rate = 0.5;
    m->round = 2;
    m->depth = 1;
    m->sender = sender;
    m->piggyback =
        std::make_shared<const RowBatch>(three_row_update(rows).rows);
    out.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<MembershipDigestMsg>();
    m->sender = sender;
    m->sender_pid = 5;
    m->digests = {{1, 0, 10}, {2, 3, 20}};
    out.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<MembershipUpdateMsg>(three_row_update(rows));
    m->sender = sender;
    out.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<ViewTransferMsg>();
    m->sender = sender;
    m->rows = three_row_update(rows).rows;
    out.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<SuspectQueryMsg>();
    m->sender = sender;
    m->suspect = Address::parse("1.5.1");
    out.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<SuspectReplyMsg>();
    m->sender = sender;
    m->suspect = Address::parse("1.5.1");
    m->heard_recently = true;
    out.push_back(std::move(m));
  }
  return out;
}

const SenderRef& sender_of(const MessageBase& m) {
  switch (m.kind) {
    case MsgKind::Gossip: return static_cast<const GossipMsg&>(m).sender;
    case MsgKind::MembershipDigest:
      return static_cast<const MembershipDigestMsg&>(m).sender;
    case MsgKind::MembershipUpdate:
      return static_cast<const MembershipUpdateMsg&>(m).sender;
    case MsgKind::ViewTransfer:
      return static_cast<const ViewTransferMsg&>(m).sender;
    case MsgKind::SuspectQuery:
      return static_cast<const SuspectQueryMsg&>(m).sender;
    case MsgKind::SuspectReply:
      return static_cast<const SuspectReplyMsg&>(m).sender;
    default: throw std::logic_error("message names no sender");
  }
}

/// The frames of messages_from, with the sender "1.2.3" named by handle.
std::vector<std::vector<std::uint8_t>> sender_frames(Interns& table) {
  const SenderRef sender(table, table.addrs.intern(Address::parse("1.2.3")));
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& m : messages_from(sender, table))
    out.push_back(wire::encode_message(*m));
  return out;
}

TEST(WireSender, HandleEncodesLikeTheAddress) {
  Interns table;
  table.addrs.intern(Address::parse("9.9.9"));  // the sender's id is not 0
  const Address address = Address::parse("1.2.3");
  const auto by_handle =
      messages_from(SenderRef(table, table.addrs.intern(address)), table);
  const auto by_address = messages_from(address, table);
  ASSERT_EQ(by_handle.size(), by_address.size());
  for (std::size_t k = 0; k < by_handle.size(); ++k) {
    EXPECT_NE(sender_of(*by_handle[k]).interns(), nullptr);
    EXPECT_EQ(sender_of(*by_address[k]).interns(), nullptr);
    EXPECT_EQ(wire::encode_message(*by_handle[k]),
              wire::encode_message(*by_address[k]))
        << "kind " << static_cast<int>(by_handle[k]->kind);
  }
}

TEST(WireSender, IntoTableDecodeNamesTheTablesId) {
  Interns sender_table;
  const auto frames = sender_frames(sender_table);
  Interns into;
  into.addrs.intern(Address::parse("4.4.4"));  // ids differ from the sender's
  into.addrs.intern(Address::parse("4.4.5"));
  for (const auto& bytes : frames) {
    const auto decoded = wire::decode_message(bytes, into);
    const SenderRef& sender = sender_of(*decoded);
    EXPECT_EQ(sender.interns(), &into);
    EXPECT_EQ(sender.id(), into.addrs.find(Address::parse("1.2.3")));
    EXPECT_EQ(wire::encode_message(*decoded), bytes);
  }
  // The sender was interned once, not once per frame.
  EXPECT_EQ(into.addrs.size(), 2u + 3u);
}

TEST(WireSender, ContextFreeDecodeYieldsTheAddress) {
  Interns sender_table;
  const Address address = Address::parse("1.2.3");
  for (const auto& bytes : sender_frames(sender_table)) {
    const auto decoded = wire::decode_message(bytes);
    const SenderRef& sender = sender_of(*decoded);
    EXPECT_EQ(sender.interns(), nullptr);
    EXPECT_EQ(sender.id(), kNoAddr);
    EXPECT_TRUE(std::ranges::equal(sender.components(), address.components()));
    EXPECT_EQ(sender, SenderRef(address));
    EXPECT_EQ(wire::encode_message(*decoded), bytes);
  }
}

TEST(WireSender, EveryTruncationStillThrows) {
  Interns sender_table;
  Interns into;
  for (const auto& bytes : sender_frames(sender_table)) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::span<const std::uint8_t> head(bytes.data(), cut);
      EXPECT_THROW((void)wire::decode_message(head), DecodeError)
          << "context-free, " << cut << " of " << bytes.size();
      EXPECT_THROW((void)wire::decode_message(head, into), DecodeError)
          << "into a table, " << cut << " of " << bytes.size();
    }
  }
}

}  // namespace
}  // namespace pmc
