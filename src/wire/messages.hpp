// Wire encoding of pmcast's domain types and protocol messages.
//
// Every protocol message (gossip, membership digest/update, join/leave,
// baseline gossips) round-trips through encode_message/decode_message with
// a one-byte type tag. Decoders validate everything (bounds, tags, depth
// limits on predicate trees) and throw DecodeError on malformed input.
#pragma once

#include <memory>

#include "baselines/flooding.hpp"
#include "baselines/genuine.hpp"
#include "membership/sync.hpp"
#include "pmcast/node.hpp"
#include "wire/codec.hpp"

namespace pmc::wire {

// -- Domain types -----------------------------------------------------------

void encode(Writer& w, const Value& v);
Value decode_value(Reader& r);

void encode(Writer& w, const Event& e);
Event decode_event(Reader& r);

void encode(Writer& w, const PredicatePtr& p);
/// `max_depth` bounds AST recursion against adversarial input.
PredicatePtr decode_predicate(Reader& r, std::size_t max_depth = 64);

void encode(Writer& w, const Subscription& s);
Subscription decode_subscription(Reader& r);

void encode(Writer& w, const Interval& iv);
Interval decode_interval(Reader& r);

void encode(Writer& w, const IntervalSet& set);
IntervalSet decode_interval_set(Reader& r);

void encode(Writer& w, const Clause& c);
Clause decode_clause(Reader& r);

void encode(Writer& w, const InterestSummary& s);
InterestSummary decode_summary(Reader& r);

void encode(Writer& w, const Address& a);
Address decode_address(Reader& r);

/// A message's sender: the bytes of its address, read from the components
/// whatever form the sender is in (a handle encodes like the Address it
/// names).
void encode(Writer& w, const SenderRef& sender);

/// A depth-tagged row list: per row its depth, infix, delegate addresses
/// (ids resolved through the batch's table), interest summary, process
/// count, version and alive flag.
void encode(Writer& w, const RowBatch& rows);
/// Context-free: the decoded batch keeps its addresses itself and each
/// row's summary is a private copy; a receiver re-interns what it keeps.
RowBatch decode_row_batch(Reader& r);
/// Into a runtime's tables: the batch is bound to `into`, each delegate is
/// `into.addrs.intern(...)` and each summary the pool's instance (a
/// duplicate is freed at once), so the rows arrive in the same handle form
/// as a batch built in the simulation. Reads the same bytes and throws the
/// same DecodeErrors as the context-free form. Only the thread that owns
/// `into` may call it.
RowBatch decode_row_batch(Reader& r, Interns& into);

// -- Protocol envelope ------------------------------------------------------

enum class MessageTag : std::uint8_t {
  Gossip = 1,
  MembershipDigest = 2,
  MembershipUpdate = 3,
  JoinRequest = 4,
  ViewTransfer = 5,
  Leave = 6,
  FloodGossip = 7,
  GenuineGossip = 8,
  SuspectQuery = 9,
  SuspectReply = 10,
  EventDigest = 11,
  EventRequest = 12,
  EventPayload = 13,
};

/// Serializes any of the known protocol messages; throws std::logic_error
/// for unknown MessageBase subclasses.
std::vector<std::uint8_t> encode_message(const MessageBase& msg);

/// Parses a message envelope; throws DecodeError on malformed input.
/// Membership rows (updates, view transfers, piggybacks) decode
/// context-free, as decode_row_batch(Reader&), and senders as the plain
/// Address.
MessagePtr decode_message(std::span<const std::uint8_t> data);
/// Same, with membership rows decoded into `into` (see
/// decode_row_batch(Reader&, Interns&)) and senders interned there and
/// named by handle: what a runtime's transcoder passes, so the frames it
/// delivers share its pooled rows and interned addresses.
MessagePtr decode_message(std::span<const std::uint8_t> data, Interns& into);

}  // namespace pmc::wire
