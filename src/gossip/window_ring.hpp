// Dense per-window event state: the shared replacement for every per-EventId
// hash container in the gossip/retransmit/stream layers.
//
// The stream is windowed by construction — a fixed number of coded packets
// per window, strictly advancing window ids, all bookkeeping garbage-
// collected below a moving cutoff — so per-event state never needs hashing:
// an EventId decomposes into (window, index) and indexes a fixed ring of
// per-window slabs directly.
//
//   WindowRing<T>   ring of `windows` slabs, each a presence bitmap over
//                   `slots` packet indices plus (for non-void T) a
//                   contiguous value array, plus a per-window cancelled
//                   flag. Lookup / insert / erase are O(1); gc is an O(1)
//                   base advance that frees the dropped slabs. Slabs are
//                   allocated lazily on first insert and released when a
//                   window empties, so quiet windows cost 24 bytes of ring
//                   state, not a slab.
//   EventRing       the delivered-event store, same ring shape but SoA:
//                   presence bits + a uint32 virtual-size array always, a
//                   BufferRef payload array only for windows that actually
//                   store payload bytes — a virtual-payload run (100k-node
//                   scale) allocates no payload slabs at all.
//
// Domain: a ring covers windows [base, base + windows). Callers gate ids
// against in_domain()/slot_valid() *before* inserting (out-of-range wire
// ids are malformed, see ThreePhaseGossip); lookups outside the domain are
// safe and report absence.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "gossip/messages.hpp"

namespace hg::gossip {

struct RingGeometry {
  std::uint32_t windows = 0;  // ring capacity, in windows
  std::uint32_t slots = 0;    // packet indices per window
};

template <typename T>
class WindowRing {
  static constexpr bool kHasValues = !std::is_void_v<T>;
  // void rings are bitmap-only; the value array member stays null forever.
  using Stored = std::conditional_t<kHasValues, T, char>;

 public:
  explicit WindowRing(RingGeometry geo)
      : geo_(geo), words_((geo.slots + 63) / 64), states_(geo.windows) {}

  [[nodiscard]] const RingGeometry& geometry() const { return geo_; }
  [[nodiscard]] std::uint32_t base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool in_domain(std::uint32_t window) const {
    return window >= base_ && window - base_ < geo_.windows;
  }
  [[nodiscard]] bool slot_valid(EventId id) const { return id.index() < geo_.slots; }

  [[nodiscard]] bool contains(EventId id) const {
    if (!in_domain(id.window()) || !slot_valid(id)) return false;
    const State& s = state(id.window());
    return s.bits && ((s.bits[id.index() >> 6] >> (id.index() & 63)) & 1u);
  }

  // Pointer to the stored value, or nullptr if absent (out-of-domain ids
  // included). Non-void rings only.
  [[nodiscard]] T* find(EventId id)
    requires kHasValues
  {
    if (!contains(id)) return nullptr;
    return &state(id.window()).values[id.index()];
  }
  [[nodiscard]] const T* find(EventId id) const
    requires kHasValues
  {
    return const_cast<WindowRing*>(this)->find(id);
  }

  // try_emplace semantics: inserts a default-constructed value if absent.
  // Returns {value, inserted} for value rings, `inserted` for void rings.
  // Precondition: in_domain(id.window()) && slot_valid(id).
  auto insert(EventId id) {
    HG_ASSERT(in_domain(id.window()) && slot_valid(id));
    State& s = state(id.window());
    ensure_slab(s);
    std::uint64_t& word = s.bits[id.index() >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (id.index() & 63);
    const bool inserted = (word & mask) == 0;
    if (inserted) {
      word |= mask;
      ++s.count;
      ++size_;
      if constexpr (kHasValues) s.values[id.index()] = Stored{};
    }
    if constexpr (kHasValues) {
      return std::pair<T*, bool>{&s.values[id.index()], inserted};
    } else {
      return inserted;
    }
  }

  // Removes `id` if present; releases the window's slab when it empties.
  bool erase(EventId id) {
    if (!in_domain(id.window()) || !slot_valid(id)) return false;
    State& s = state(id.window());
    if (!s.bits) return false;
    std::uint64_t& word = s.bits[id.index() >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (id.index() & 63);
    if ((word & mask) == 0) return false;
    word &= ~mask;
    --s.count;
    --size_;
    if (s.count == 0) release_slab(s);
    return true;
  }

  // Per-window cancelled flag. Lives in the fixed ring state, not the slab:
  // cancelling windows never allocates. Out-of-domain windows are ignored
  // (below base means already gc'd). The flag is reset when the window is
  // dropped by advance().
  void set_cancelled(std::uint32_t window) {
    if (in_domain(window)) state(window).cancelled = true;
  }
  [[nodiscard]] bool cancelled(std::uint32_t window) const {
    return in_domain(window) && state(window).cancelled;
  }

  // Visits every present entry of `window` in ascending index order (the
  // deterministic order every consumer relies on). fn(index, T&) for value
  // rings, fn(index) for void rings.
  template <typename Fn>
  void for_each_in_window(std::uint32_t window, Fn&& fn) {
    if (!in_domain(window)) return;
    State& s = state(window);
    if (!s.bits) return;
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t word = s.bits[w];
      while (word != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        const std::uint32_t index = w * 64 + bit;
        if constexpr (kHasValues) {
          fn(index, s.values[index]);
        } else {
          fn(index);
        }
      }
    }
  }

  // Drops all entries of `window` (idempotent; cancelled flag untouched —
  // flags outlive their window's entries until gc). Returns how many there
  // were.
  std::size_t clear_window(std::uint32_t window) {
    if (!in_domain(window)) return 0;
    State& s = state(window);
    const std::size_t dropped = s.count;
    size_ -= dropped;
    release_slab(s);
    return dropped;
  }

  // GC: advances the domain to [new_base, new_base + windows), freeing the
  // slabs and cancelled flags of every dropped window. O(windows dropped),
  // independent of entry count; no-op if new_base is not ahead of base.
  void advance(std::uint32_t new_base) {
    if (new_base <= base_) return;
    const std::uint64_t dropped = std::uint64_t{new_base} - base_;
    const auto clamp = static_cast<std::uint32_t>(
        dropped < geo_.windows ? dropped : geo_.windows);
    for (std::uint32_t i = 0; i < clamp; ++i) {
      State& s = state(base_ + i);
      size_ -= s.count;
      release_slab(s);
      s.cancelled = false;
    }
    base_ = new_base;
  }

  // Heap bytes of ring state + live slabs (what bench_fig_scale tracks).
  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t bytes = states_.capacity() * sizeof(State);
    for (const State& s : states_) {
      if (!s.bits) continue;
      bytes += words_ * sizeof(std::uint64_t);
      if constexpr (kHasValues) bytes += geo_.slots * sizeof(Stored);
    }
    return bytes;
  }

 private:
  struct State {
    std::unique_ptr<std::uint64_t[]> bits;
    std::unique_ptr<Stored[]> values;  // null for void rings
    std::uint32_t count = 0;
    bool cancelled = false;
  };

  [[nodiscard]] State& state(std::uint32_t window) { return states_[window % geo_.windows]; }
  [[nodiscard]] const State& state(std::uint32_t window) const {
    return states_[window % geo_.windows];
  }

  void ensure_slab(State& s) {
    if (s.bits) return;
    s.bits = std::make_unique<std::uint64_t[]>(words_);
    if constexpr (kHasValues) s.values = std::make_unique<Stored[]>(geo_.slots);
  }
  void release_slab(State& s) {
    s.bits.reset();
    if constexpr (kHasValues) s.values.reset();
    s.count = 0;
  }

  RingGeometry geo_;
  std::uint32_t words_;
  std::uint32_t base_ = 0;
  std::size_t size_ = 0;
  std::vector<State> states_;
};

// The delivered-event store. Ring shape as WindowRing, but the slabs are
// struct-of-arrays: presence bits and a uint32 virtual-size array always, a
// payload BufferRef array only materialized for windows that store real
// payload bytes. find() reassembles the Event into a scratch slot — valid
// until the next find()/insert() — so the `const Event*` surface of
// ThreePhaseGossip::delivered_event survives the representation change.
class EventRing {
 public:
  explicit EventRing(RingGeometry geo)
      : geo_(geo), words_((geo.slots + 63) / 64), states_(geo.windows) {}

  [[nodiscard]] std::uint32_t base() const { return base_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool in_domain(std::uint32_t window) const {
    return window >= base_ && window - base_ < geo_.windows;
  }
  [[nodiscard]] bool slot_valid(EventId id) const { return id.index() < geo_.slots; }

  [[nodiscard]] bool contains(EventId id) const {
    if (!in_domain(id.window()) || !slot_valid(id)) return false;
    const State& s = state(id.window());
    return s.bits && ((s.bits[id.index() >> 6] >> (id.index() & 63)) & 1u);
  }

  [[nodiscard]] const Event* find(EventId id) const {
    if (!contains(id)) return nullptr;
    const State& s = state(id.window());
    scratch_.id = id;
    scratch_.payload = s.payloads ? s.payloads[id.index()] : net::BufferRef{};
    scratch_.virtual_size = s.virtual_sizes[id.index()];
    return &scratch_;
  }

  // Precondition: !contains(event.id) and the id is in-domain and valid.
  void insert(const Event& event) {
    const EventId id = event.id;
    HG_ASSERT(in_domain(id.window()) && slot_valid(id));
    State& s = state(id.window());
    if (!s.bits) {
      s.bits = std::make_unique<std::uint64_t[]>(words_);
      s.virtual_sizes = std::make_unique<std::uint32_t[]>(geo_.slots);
    }
    std::uint64_t& word = s.bits[id.index() >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (id.index() & 63);
    HG_ASSERT((word & mask) == 0);
    word |= mask;
    ++s.count;
    ++size_;
    s.virtual_sizes[id.index()] = event.virtual_size;
    if (event.payload) {
      if (!s.payloads) s.payloads = std::make_unique<net::BufferRef[]>(geo_.slots);
      s.payloads[id.index()] = event.payload;
    }
  }

  void advance(std::uint32_t new_base) {
    if (new_base <= base_) return;
    const std::uint64_t dropped = std::uint64_t{new_base} - base_;
    const auto clamp = static_cast<std::uint32_t>(
        dropped < geo_.windows ? dropped : geo_.windows);
    for (std::uint32_t i = 0; i < clamp; ++i) {
      State& s = state(base_ + i);
      size_ -= s.count;
      s.bits.reset();
      s.virtual_sizes.reset();
      s.payloads.reset();  // releases the pooled payload chunks
      s.count = 0;
    }
    base_ = new_base;
  }

  [[nodiscard]] std::size_t state_bytes() const {
    std::size_t bytes = states_.capacity() * sizeof(State);
    for (const State& s : states_) {
      if (s.bits) bytes += words_ * sizeof(std::uint64_t) + geo_.slots * sizeof(std::uint32_t);
      if (s.payloads) bytes += geo_.slots * sizeof(net::BufferRef);
    }
    return bytes;
  }

 private:
  struct State {
    std::unique_ptr<std::uint64_t[]> bits;
    std::unique_ptr<std::uint32_t[]> virtual_sizes;
    std::unique_ptr<net::BufferRef[]> payloads;  // only when real bytes are stored
    std::uint32_t count = 0;
  };

  [[nodiscard]] State& state(std::uint32_t window) { return states_[window % geo_.windows]; }
  [[nodiscard]] const State& state(std::uint32_t window) const {
    return states_[window % geo_.windows];
  }

  RingGeometry geo_;
  std::uint32_t words_;
  std::uint32_t base_ = 0;
  std::size_t size_ = 0;
  std::vector<State> states_;
  mutable Event scratch_;
};

}  // namespace hg::gossip
