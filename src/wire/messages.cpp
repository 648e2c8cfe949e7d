#include "wire/messages.hpp"

#include <limits>

namespace pmc::wire {

namespace {

constexpr std::uint64_t kMaxCollection = 1 << 20;  // sanity bound on counts

/// Sanity cap on gossip rounds: legitimate rounds are O(log n) (Pittel's
/// bound), so anything near integer range is a corrupted frame or a relic
/// of the retired round = uint32::max "do not re-gossip" sentinel (now the
/// explicit GossipMsg::no_regossip flag). Enforced on both directions so a
/// sentinel can neither leave nor enter round arithmetic.
constexpr std::uint64_t kMaxGossipRound = 1 << 20;

std::uint64_t checked_count(Reader& r) {
  const std::uint64_t n = r.varint();
  if (n > kMaxCollection) throw DecodeError("collection too large");
  return n;
}

}  // namespace

// -- Value -------------------------------------------------------------------

void encode(Writer& w, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Int:
      w.u8(0);
      w.svarint(v.as_int());
      break;
    case ValueKind::Float:
      w.u8(1);
      w.f64(v.as_double());
      break;
    case ValueKind::String:
      w.u8(2);
      w.str(v.as_string());
      break;
  }
}

Value decode_value(Reader& r) {
  switch (r.u8()) {
    case 0: return Value(r.svarint());
    case 1: return Value(r.f64());
    case 2: return Value(r.str());
    default: throw DecodeError("bad value kind");
  }
}

// -- Event -------------------------------------------------------------------

void encode(Writer& w, const Event& e) {
  w.varint(e.id().publisher);
  w.varint(e.id().sequence);
  w.varint(e.attributes().size());
  for (const auto& a : e.attributes()) {
    w.str(a.name);
    encode(w, a.value);
  }
}

Event decode_event(Reader& r) {
  EventId id;
  id.publisher = r.varint();
  id.sequence = r.varint();
  Event e(id);
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    if (name.empty()) throw DecodeError("empty attribute name");
    e.with(std::move(name), decode_value(r));
  }
  return e;
}

// -- Predicate ----------------------------------------------------------------

void encode(Writer& w, const PredicatePtr& p) {
  using Kind = Predicate::Kind;
  switch (p->kind()) {
    case Kind::True: w.u8(0); break;
    case Kind::False: w.u8(1); break;
    case Kind::Compare:
      w.u8(2);
      w.str(p->attr());
      w.u8(static_cast<std::uint8_t>(p->op()));
      encode(w, p->value());
      break;
    case Kind::And:
    case Kind::Or:
      w.u8(p->kind() == Kind::And ? 3 : 4);
      w.varint(p->children().size());
      for (const auto& c : p->children()) encode(w, c);
      break;
    case Kind::Not:
      w.u8(5);
      encode(w, p->child());
      break;
  }
}

PredicatePtr decode_predicate(Reader& r, std::size_t max_depth) {
  if (max_depth == 0) throw DecodeError("predicate too deep");
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case 0: return Predicate::wildcard();
    case 1: return Predicate::never();
    case 2: {
      std::string attr = r.str();
      if (attr.empty()) throw DecodeError("empty attribute in comparison");
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(CmpOp::Ge))
        throw DecodeError("bad comparison operator");
      return Predicate::compare(std::move(attr), static_cast<CmpOp>(op),
                                decode_value(r));
    }
    case 3:
    case 4: {
      // Rebuilding through the conj/disj factories re-applies constant
      // folding and flattening: the decoded tree is canonical, equivalent.
      const auto n = checked_count(r);
      std::vector<PredicatePtr> children;
      children.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i)
        children.push_back(decode_predicate(r, max_depth - 1));
      return tag == 3 ? Predicate::conj(std::move(children))
                      : Predicate::disj(std::move(children));
    }
    case 5:
      return Predicate::negation(decode_predicate(r, max_depth - 1));
    default: throw DecodeError("bad predicate tag");
  }
  throw DecodeError("unreachable predicate tag");
}

// -- Subscription -------------------------------------------------------------

void encode(Writer& w, const Subscription& s) { encode(w, s.predicate()); }

Subscription decode_subscription(Reader& r) {
  return Subscription(decode_predicate(r));
}

// -- Interval / IntervalSet ----------------------------------------------------

void encode(Writer& w, const Interval& iv) {
  w.f64(iv.lo);
  w.f64(iv.hi);
  w.boolean(iv.lo_open);
  w.boolean(iv.hi_open);
}

Interval decode_interval(Reader& r) {
  Interval iv;
  iv.lo = r.f64();
  iv.hi = r.f64();
  iv.lo_open = r.boolean();
  iv.hi_open = r.boolean();
  return iv;
}

void encode(Writer& w, const IntervalSet& set) {
  w.varint(set.intervals().size());
  for (const auto& iv : set.intervals()) encode(w, iv);
}

IntervalSet decode_interval_set(Reader& r) {
  IntervalSet set;
  const auto n = checked_count(r);
  for (std::uint64_t i = 0; i < n; ++i) set.insert(decode_interval(r));
  return set;
}

// -- Clause ---------------------------------------------------------------------

void encode(Writer& w, const Clause& c) {
  w.varint(c.numeric().size());
  for (const auto& [attr, iv] : c.numeric()) {
    w.str(attr);
    encode(w, iv);
  }
  w.varint(c.strings().size());
  for (const auto& [attr, allowed] : c.strings()) {
    w.str(attr);
    w.varint(allowed.size());
    for (const auto& s : allowed) w.str(s);
  }
}

Clause decode_clause(Reader& r) {
  Clause c;
  const auto numeric = checked_count(r);
  for (std::uint64_t i = 0; i < numeric; ++i) {
    std::string attr = r.str();
    c.constrain_numeric(attr, decode_interval(r));
  }
  const auto strings = checked_count(r);
  for (std::uint64_t i = 0; i < strings; ++i) {
    std::string attr = r.str();
    const auto count = checked_count(r);
    std::vector<std::string> allowed;
    allowed.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t j = 0; j < count; ++j) allowed.push_back(r.str());
    c.constrain_string(attr, std::move(allowed));
  }
  return c;
}

// -- InterestSummary ---------------------------------------------------------

void encode(Writer& w, const InterestSummary& s) {
  w.boolean(s.is_wildcard());
  w.varint(s.numeric_unions().size());
  for (const auto& [attr, set] : s.numeric_unions()) {
    w.str(attr);
    encode(w, set);
  }
  w.varint(s.string_unions().size());
  for (const auto& [attr, allowed] : s.string_unions()) {
    w.str(attr);
    w.varint(allowed.size());
    for (const auto& v : allowed) w.str(v);
  }
  w.varint(s.clauses().size());
  for (const auto& c : s.clauses()) encode(w, c);
  w.varint(s.opaque().size());
  for (const auto& p : s.opaque()) encode(w, p);
}

InterestSummary decode_summary(Reader& r) {
  const bool wildcard = r.boolean();
  std::map<std::string, IntervalSet> numeric;
  const auto numeric_count = checked_count(r);
  for (std::uint64_t i = 0; i < numeric_count; ++i) {
    std::string attr = r.str();
    numeric.emplace(std::move(attr), decode_interval_set(r));
  }
  std::map<std::string, std::vector<std::string>> strings;
  const auto string_count = checked_count(r);
  for (std::uint64_t i = 0; i < string_count; ++i) {
    std::string attr = r.str();
    const auto count = checked_count(r);
    std::vector<std::string> allowed;
    for (std::uint64_t j = 0; j < count; ++j) allowed.push_back(r.str());
    strings.emplace(std::move(attr), std::move(allowed));
  }
  std::vector<Clause> clauses;
  const auto clause_count = checked_count(r);
  for (std::uint64_t i = 0; i < clause_count; ++i)
    clauses.push_back(decode_clause(r));
  std::vector<PredicatePtr> opaque;
  const auto opaque_count = checked_count(r);
  for (std::uint64_t i = 0; i < opaque_count; ++i)
    opaque.push_back(decode_predicate(r));
  return InterestSummary::reassemble(wildcard, std::move(numeric),
                                     std::move(strings), std::move(clauses),
                                     std::move(opaque));
}

// -- Address / RowBatch --------------------------------------------------------

namespace {

/// An address's bytes, from its components (Address and handle encodes
/// share this one definition).
void encode_components(Writer& w, std::span<const AddrComponent> comps) {
  w.varint(comps.size());
  for (const auto c : comps) w.varint(c);
}

/// Reads one address's components into `out` (replacing its contents).
void decode_components(Reader& r, std::vector<AddrComponent>& out) {
  const auto depth = checked_count(r);
  if (depth == 0) throw DecodeError("empty address");
  out.clear();
  out.reserve(static_cast<std::size_t>(depth));
  for (std::uint64_t i = 0; i < depth; ++i) {
    const std::uint64_t c = r.varint();
    if (c > std::numeric_limits<AddrComponent>::max())
      throw DecodeError("address component out of range");
    out.push_back(static_cast<AddrComponent>(c));
  }
}

/// With `into` the sender is interned straight from its components and
/// named by handle; without, it is the plain Address.
SenderRef decode_sender(Reader& r, Interns* into) {
  std::vector<AddrComponent> comps;
  decode_components(r, comps);
  if (into != nullptr) {
    const AddrId id = into->addrs.intern(std::span<const AddrComponent>(comps));
    return SenderRef(*into, id);
  }
  return SenderRef(Address(std::move(comps)));
}

AddrComponent decode_infix(Reader& r) {
  const std::uint64_t infix = r.varint();
  if (infix > std::numeric_limits<AddrComponent>::max())
    throw DecodeError("infix out of range");
  return static_cast<AddrComponent>(infix);
}

}  // namespace

void encode(Writer& w, const Address& a) {
  encode_components(w, a.components());
}

Address decode_address(Reader& r) {
  std::vector<AddrComponent> comps;
  decode_components(r, comps);
  return Address(std::move(comps));
}

void encode(Writer& w, const SenderRef& sender) {
  encode_components(w, sender.components());
}

void encode(Writer& w, const RowBatch& rows) {
  w.varint(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    w.varint(rows.depth(k));
    w.varint(rows.infix(k));
    const auto delegates = rows.delegates(k);
    w.varint(delegates.size());
    for (const AddrId id : delegates) encode_components(w, rows.address(id));
    encode(w, rows.interests(k));
    w.varint(rows.process_count(k));
    w.varint(rows.version(k));
    w.boolean(rows.alive(k));
  }
}

namespace {

/// The one row-decoding loop. With `into` the rows land in that table
/// (delegates interned, summaries pooled) and the batch is bound to it;
/// without, the batch keeps its addresses itself and each summary is a
/// private copy. Bytes read and every check are the same either way.
RowBatch decode_rows(Reader& r, Interns* into) {
  RowBatch rows = into != nullptr ? RowBatch(*into) : RowBatch();
  const auto n = checked_count(r);
  std::vector<AddrId> ids;
  std::vector<AddrComponent> comps;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t depth = r.varint();
    if (depth == 0 || depth > 0xff) throw DecodeError("bad row depth");
    const AddrComponent infix = decode_infix(r);
    const auto delegates = checked_count(r);
    ids.clear();
    for (std::uint64_t j = 0; j < delegates; ++j) {
      decode_components(r, comps);
      const std::span<const AddrComponent> address(comps);
      ids.push_back(into != nullptr ? into->addrs.intern(address)
                                    : rows.add_address(address));
    }
    InterestSummary summary = decode_summary(r);
    auto interests =
        into != nullptr
            ? into->summaries.intern(std::move(summary))
            : std::make_shared<const InterestSummary>(std::move(summary));
    const std::uint64_t process_count = r.varint();
    const std::uint64_t version = r.varint();
    const bool alive = r.boolean();
    rows.push(static_cast<std::uint32_t>(depth), infix, ids,
              std::move(interests), process_count, version, alive);
  }
  return rows;
}

}  // namespace

RowBatch decode_row_batch(Reader& r) { return decode_rows(r, nullptr); }

RowBatch decode_row_batch(Reader& r, Interns& into) {
  return decode_rows(r, &into);
}

// -- Envelope --------------------------------------------------------------------

// The in-memory kind tag doubles as the wire discriminator; if either enum
// drifts, these fire rather than the decoder mis-routing bytes.
#define PMC_ASSERT_TAG_MIRRORS_KIND(name)                  \
  static_assert(static_cast<std::uint8_t>(MessageTag::name) == \
                static_cast<std::uint8_t>(MsgKind::name))
PMC_ASSERT_TAG_MIRRORS_KIND(Gossip);
PMC_ASSERT_TAG_MIRRORS_KIND(MembershipDigest);
PMC_ASSERT_TAG_MIRRORS_KIND(MembershipUpdate);
PMC_ASSERT_TAG_MIRRORS_KIND(JoinRequest);
PMC_ASSERT_TAG_MIRRORS_KIND(ViewTransfer);
PMC_ASSERT_TAG_MIRRORS_KIND(Leave);
PMC_ASSERT_TAG_MIRRORS_KIND(FloodGossip);
PMC_ASSERT_TAG_MIRRORS_KIND(GenuineGossip);
PMC_ASSERT_TAG_MIRRORS_KIND(SuspectQuery);
PMC_ASSERT_TAG_MIRRORS_KIND(SuspectReply);
PMC_ASSERT_TAG_MIRRORS_KIND(EventDigest);
PMC_ASSERT_TAG_MIRRORS_KIND(EventRequest);
PMC_ASSERT_TAG_MIRRORS_KIND(EventPayload);
#undef PMC_ASSERT_TAG_MIRRORS_KIND

std::vector<std::uint8_t> encode_message(const MessageBase& msg) {
  Writer w;
  // One shared discriminator write (the asserts above guarantee the kind
  // byte IS the MessageTag byte); the per-kind cases only encode bodies.
  w.u8(static_cast<std::uint8_t>(msg.kind));
  switch (msg.kind) {
    case MsgKind::Gossip: {
      const auto& gossip = static_cast<const GossipMsg&>(msg);
      if (gossip.round > kMaxGossipRound)
        throw std::logic_error(
            "encode_message: gossip round beyond sanity cap (sentinel?)");
      encode(w, *gossip.event);
      w.f64(gossip.rate);
      w.varint(gossip.round);
      w.varint(gossip.depth);
      w.boolean(gossip.no_regossip);
      const bool piggybacked =
          gossip.piggyback != nullptr && !gossip.piggyback->empty();
      w.boolean(piggybacked);
      if (piggybacked) {
        encode(w, gossip.sender);
        encode(w, *gossip.piggyback);
      }
      break;
    }
    case MsgKind::MembershipDigest: {
      const auto& digest = static_cast<const MembershipDigestMsg&>(msg);
      encode(w, digest.sender);
      w.varint(digest.sender_pid);
      w.varint(digest.digests.size());
      for (const auto& d : digest.digests) {
        w.varint(d.depth);
        w.varint(d.infix);
        w.varint(d.version);
      }
      break;
    }
    case MsgKind::MembershipUpdate: {
      const auto& update = static_cast<const MembershipUpdateMsg&>(msg);
      encode(w, update.sender);
      encode(w, update.rows);
      break;
    }
    case MsgKind::JoinRequest: {
      const auto& join = static_cast<const JoinRequestMsg&>(msg);
      encode(w, join.joiner);
      w.varint(join.joiner_pid);
      encode(w, join.subscription);
      w.varint(join.hops);
      break;
    }
    case MsgKind::ViewTransfer: {
      const auto& transfer = static_cast<const ViewTransferMsg&>(msg);
      encode(w, transfer.sender);
      encode(w, transfer.rows);
      break;
    }
    case MsgKind::Leave: {
      const auto& leave = static_cast<const LeaveMsg&>(msg);
      encode(w, leave.leaver);
      break;
    }
    case MsgKind::FloodGossip: {
      const auto& flood = static_cast<const FloodGossipMsg&>(msg);
      encode(w, *flood.event);
      w.varint(flood.round);
      break;
    }
    case MsgKind::GenuineGossip: {
      const auto& genuine = static_cast<const GenuineGossipMsg&>(msg);
      encode(w, *genuine.event);
      w.varint(genuine.round);
      break;
    }
    case MsgKind::SuspectQuery: {
      const auto& query = static_cast<const SuspectQueryMsg&>(msg);
      encode(w, query.sender);
      encode(w, query.suspect);
      break;
    }
    case MsgKind::SuspectReply: {
      const auto& reply = static_cast<const SuspectReplyMsg&>(msg);
      encode(w, reply.sender);
      encode(w, reply.suspect);
      w.boolean(reply.heard_recently);
      break;
    }
    case MsgKind::EventDigest: {
      const auto& digest = static_cast<const EventDigestMsg&>(msg);
      w.varint(digest.ids.size());
      for (const auto& id : digest.ids) {
        w.varint(id.publisher);
        w.varint(id.sequence);
      }
      break;
    }
    case MsgKind::EventRequest: {
      const auto& request = static_cast<const EventRequestMsg&>(msg);
      w.varint(request.ids.size());
      for (const auto& id : request.ids) {
        w.varint(id.publisher);
        w.varint(id.sequence);
      }
      break;
    }
    case MsgKind::EventPayload: {
      const auto& payload = static_cast<const EventPayloadMsg&>(msg);
      w.varint(payload.events.size());
      for (const auto& event : payload.events) encode(w, *event);
      break;
    }
    default:
      throw std::logic_error("encode_message: unknown message type");
  }
  return std::move(w).take();
}

namespace {

/// The one envelope decoder; `into` as for decode_rows.
MessagePtr decode_envelope(std::span<const std::uint8_t> data,
                           Interns* into) {
  Reader r(data);
  const auto tag = static_cast<MessageTag>(r.u8());
  MessagePtr out;
  switch (tag) {
    case MessageTag::Gossip: {
      auto msg = std::make_shared<GossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->rate = r.f64();
      if (!(msg->rate >= 0.0 && msg->rate <= 1.0))
        throw DecodeError("rate out of range");
      const std::uint64_t round = r.varint();
      if (round > kMaxGossipRound)
        throw DecodeError("gossip round beyond sanity cap");
      msg->round = static_cast<std::uint32_t>(round);
      const std::uint64_t depth = r.varint();
      if (depth == 0 || depth > 0xff) throw DecodeError("bad gossip depth");
      msg->depth = static_cast<std::uint32_t>(depth);
      msg->no_regossip = r.boolean();
      if (r.boolean()) {
        msg->sender = decode_sender(r, into);
        msg->piggyback = std::make_shared<const RowBatch>(decode_rows(r, into));
      }
      out = std::move(msg);
      break;
    }
    case MessageTag::MembershipDigest: {
      auto msg = std::make_shared<MembershipDigestMsg>();
      msg->sender = decode_sender(r, into);
      msg->sender_pid = static_cast<ProcessId>(r.varint());
      const auto n = checked_count(r);
      for (std::uint64_t i = 0; i < n; ++i) {
        RowDigest d;
        d.depth = static_cast<std::uint32_t>(r.varint());
        const std::uint64_t infix = r.varint();
        if (infix > std::numeric_limits<AddrComponent>::max())
          throw DecodeError("digest infix out of range");
        d.infix = static_cast<AddrComponent>(infix);
        d.version = r.varint();
        msg->digests.push_back(d);
      }
      out = std::move(msg);
      break;
    }
    case MessageTag::MembershipUpdate: {
      auto msg = std::make_shared<MembershipUpdateMsg>();
      msg->sender = decode_sender(r, into);
      msg->rows = decode_rows(r, into);
      out = std::move(msg);
      break;
    }
    case MessageTag::JoinRequest: {
      auto msg = std::make_shared<JoinRequestMsg>();
      msg->joiner = decode_address(r);
      msg->joiner_pid = static_cast<ProcessId>(r.varint());
      msg->subscription = decode_subscription(r);
      msg->hops = static_cast<std::uint32_t>(r.varint());
      out = std::move(msg);
      break;
    }
    case MessageTag::ViewTransfer: {
      auto msg = std::make_shared<ViewTransferMsg>();
      msg->sender = decode_sender(r, into);
      msg->rows = decode_rows(r, into);
      out = std::move(msg);
      break;
    }
    case MessageTag::Leave: {
      auto msg = std::make_shared<LeaveMsg>();
      msg->leaver = decode_address(r);
      out = std::move(msg);
      break;
    }
    case MessageTag::FloodGossip: {
      auto msg = std::make_shared<FloodGossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->round = static_cast<std::uint32_t>(r.varint());
      out = std::move(msg);
      break;
    }
    case MessageTag::GenuineGossip: {
      auto msg = std::make_shared<GenuineGossipMsg>();
      msg->event = std::make_shared<const Event>(decode_event(r));
      msg->round = static_cast<std::uint32_t>(r.varint());
      out = std::move(msg);
      break;
    }
    case MessageTag::SuspectQuery: {
      auto msg = std::make_shared<SuspectQueryMsg>();
      msg->sender = decode_sender(r, into);
      msg->suspect = decode_address(r);
      out = std::move(msg);
      break;
    }
    case MessageTag::SuspectReply: {
      auto msg = std::make_shared<SuspectReplyMsg>();
      msg->sender = decode_sender(r, into);
      msg->suspect = decode_address(r);
      msg->heard_recently = r.boolean();
      out = std::move(msg);
      break;
    }
    case MessageTag::EventDigest:
    case MessageTag::EventRequest: {
      const auto n = checked_count(r);
      std::vector<EventId> ids;
      ids.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        EventId id;
        id.publisher = r.varint();
        id.sequence = r.varint();
        ids.push_back(id);
      }
      if (tag == MessageTag::EventDigest) {
        auto msg = std::make_shared<EventDigestMsg>();
        msg->ids = std::move(ids);
        out = std::move(msg);
      } else {
        auto msg = std::make_shared<EventRequestMsg>();
        msg->ids = std::move(ids);
        out = std::move(msg);
      }
      break;
    }
    case MessageTag::EventPayload: {
      auto msg = std::make_shared<EventPayloadMsg>();
      const auto n = checked_count(r);
      for (std::uint64_t i = 0; i < n; ++i)
        msg->events.push_back(
            std::make_shared<const Event>(decode_event(r)));
      out = std::move(msg);
      break;
    }
    default: throw DecodeError("unknown message tag");
  }
  r.expect_end();
  return out;
}

}  // namespace

MessagePtr decode_message(std::span<const std::uint8_t> data) {
  return decode_envelope(data, nullptr);
}

MessagePtr decode_message(std::span<const std::uint8_t> data, Interns& into) {
  return decode_envelope(data, &into);
}

}  // namespace pmc::wire
