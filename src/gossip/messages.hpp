// Wire messages of the three-phase gossip protocol and the aggregation
// protocol, with byte-exact encode/decode.
//
// Every datagram starts with a one-byte tag so a node can dispatch the
// protocols sharing its UDP port.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/buffer.hpp"
#include "net/serde.hpp"
#include "sim/time.hpp"

namespace hg::gossip {

// Tags are shared across all protocols multiplexed on a node's port.
enum class MsgTag : std::uint8_t {
  kPropose = 1,
  kRequest = 2,
  kServe = 3,
  kAggregation = 4,
  kCyclonRequest = 5,
  kCyclonReply = 6,
  kTreePush = 7,  // no module claims it; still inside peek_tag's accepted range
};

// The canonical (window, index) event identifier lives in common/types.hpp
// alongside NodeId; re-exported here because the wire layer popularized the
// name and every gossip file spells it unqualified.
using ::hg::EventId;

// A disseminated event: id + payload. The payload is a refcounted pooled
// slice — fan-out to many peers and storage for later serves never copy it,
// and a payload decoded from a serve pins the arrival buffer instead of
// copying out of it.
//
// Virtual payloads (large-scale simulation): an event may instead carry only
// a declared payload *size*. Serve datagrams of such events ship the header
// alone and account the missing bytes as phantom wire bytes, so every
// timing-relevant quantity (upload serialization, queueing, traffic meters)
// is bit-identical to a real payload of that size — while a 100k-node run
// stores no payload bytes at all. Whether a deployment runs virtual is a
// GossipConfig/StreamConfig decision applied uniformly to every node.
struct Event {
  EventId id;
  net::BufferRef payload;
  std::uint32_t virtual_size = 0;  // payload bytes represented but not stored

  [[nodiscard]] bool virtual_payload() const { return !payload && virtual_size > 0; }
  [[nodiscard]] std::size_t payload_size() const {
    return payload ? payload.size() : virtual_size;
  }
};

struct ProposeMsg {
  NodeId sender;
  std::vector<EventId> ids;
};

struct RequestMsg {
  NodeId sender;
  std::vector<EventId> ids;
};

// One event per serve *datagram*: stream packets are MTU-sized (1316 B), so
// a multi-packet serve would not fit a UDP datagram anyway. All serves of
// one request are still encoded back-to-back into a single pooled buffer
// and sent as zero-copy slices of it (see ThreePhaseGossip::on_request).
struct ServeMsg {
  NodeId sender;
  Event event;
};

// One capability observation flowing through the aggregation protocol.
struct CapabilityRecord {
  NodeId origin;
  std::int64_t capability_bps = 0;
  sim::SimTime measured_at;  // origin-local timestamp (clocks are synchronized in-sim)
};

struct AggregationMsg {
  NodeId sender;
  std::vector<CapabilityRecord> records;
};

// --- encode / decode ---------------------------------------------------
// Encoders write into a pooled buffer and return a zero-copy reference
// ready for NetworkFabric::send. Decoders return nullopt on any
// truncation/corruption (treated as datagram loss).

[[nodiscard]] net::BufferRef encode(const ProposeMsg& m);
[[nodiscard]] net::BufferRef encode(const RequestMsg& m);
[[nodiscard]] net::BufferRef encode(const ServeMsg& m);
[[nodiscard]] net::BufferRef encode(const AggregationMsg& m);

// Hot-path forms: encode straight from scratch storage without constructing
// a message struct (constructing ProposeMsg/RequestMsg would copy the id
// vector — an allocation the steady-state wire path must not make).
[[nodiscard]] net::BufferRef encode_propose(NodeId sender, std::span<const EventId> ids);
[[nodiscard]] net::BufferRef encode_request(NodeId sender, std::span<const EventId> ids);

// Exact wire size of one serve of `event` (virtual payload bytes included:
// this is what the datagram *accounts*, not what the buffer stores), and the
// batched-serve building block: appends a complete, standalone ServeMsg
// encoding to `w`, so a slice of the finished buffer is bit-identical to
// encode(ServeMsg{...}).
[[nodiscard]] std::size_t encoded_serve_size(const Event& event);
void encode_serve_into(net::ByteWriter& w, NodeId sender, const Event& event);

// One batched-serve datagram: a slice of the shared buffer plus the phantom
// byte count a virtual payload adds to its wire size (0 for real payloads).
struct ServeSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t phantom_bytes = 0;
};

// The batched serve: all of `events` encoded back-to-back into one pooled
// buffer. `spans` (cleared first) receives each event's span; every slice of
// the result at a span is a standalone serve datagram.
[[nodiscard]] net::BufferRef encode_serve_batch(NodeId sender, std::span<const Event> events,
                                                std::vector<ServeSpan>& spans);

[[nodiscard]] std::optional<MsgTag> peek_tag(std::span<const std::uint8_t> buf);
[[nodiscard]] std::optional<ProposeMsg> decode_propose(std::span<const std::uint8_t> buf);
[[nodiscard]] std::optional<RequestMsg> decode_request(std::span<const std::uint8_t> buf);
// Zero-copy: the decoded payload is a slice pinning `buf`'s backing chunk.
// `virtual_payloads` selects the deployment's serve framing: with it set,
// the payload length is declared but no bytes follow, and the decoded event
// carries virtual_size instead of a payload slice.
[[nodiscard]] std::optional<ServeMsg> decode_serve(const net::BufferRef& buf,
                                                   bool virtual_payloads = false);
// Copying overload for callers without a pooled buffer (tests, fuzzing).
[[nodiscard]] std::optional<ServeMsg> decode_serve(std::span<const std::uint8_t> buf);
[[nodiscard]] std::optional<AggregationMsg> decode_aggregation(
    std::span<const std::uint8_t> buf);

}  // namespace hg::gossip
