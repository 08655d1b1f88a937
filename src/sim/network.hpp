// Complete point-to-point network with per-link bandwidth accounting.
//
// Section 1.1: k machines are pairwise interconnected; each link delivers
// at most B bits per round.  A superstep's traffic therefore takes
// max over ordered links (i,j) of ceil(bits_ij / B) rounds.
//
// Two entry points share the same cost model:
//  - deliver() physically moves messages from per-source outboxes to
//    per-destination inboxes (deterministic order: ascending source, then
//    send order) and returns the round charge.  Used by tests and by
//    callers that hold materialized outboxes.
//  - rounds_for_link_load() is the bare round formula.  The engine's
//    three-phase exchange pre-buckets messages on the machine fibers and
//    folds only counters up the tree barrier, so it holds no Network
//    (whose deliver() scratch is k x k); it charges rounds through this
//    formula on the root-merged max-link load.  The charge per message is
//    Message::kHeaderBits + 8 * payload_bytes whether or not the
//    transport physically batched it into a per-link frame, so both
//    entry points stay byte-identical to deliver()'s accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/message.hpp"
#include "util/mathx.hpp"

namespace km {

struct DeliveryStats {
  std::uint64_t rounds = 0;  ///< max over links of ceil(bits/B); >=1 if any
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_link_bits = 0;
  bool any = false;
};

/// Round charge for a superstep whose most loaded link carried
/// `max_link_bits` at B = `bandwidth_bits`: ceil(max_link_bits / B), at
/// least 1.  Only meaningful when traffic moved; an empty superstep
/// costs 0 rounds (do not call this).
inline std::uint64_t rounds_for_link_load(
    std::uint64_t max_link_bits, std::uint64_t bandwidth_bits) noexcept {
  return std::max<std::uint64_t>(1, ceil_div(max_link_bits, bandwidth_bits));
}

class Network {
 public:
  /// bandwidth_bits is B; must be >= 1.
  Network(std::size_t k, std::uint64_t bandwidth_bits);

  std::size_t k() const noexcept { return k_; }
  std::uint64_t bandwidth_bits() const noexcept { return bandwidth_; }

  /// Round charge for a superstep whose most loaded link carried
  /// `max_link_bits`: ceil(max_link_bits / B), at least 1 when any
  /// traffic moved.  Callers pass max_link_bits > 0 only when there was
  /// traffic; for an empty superstep charge 0 rounds (do not call this).
  std::uint64_t rounds_for(std::uint64_t max_link_bits) const noexcept {
    return rounds_for_link_load(max_link_bits, bandwidth_);
  }

  /// Moves all messages from outboxes (indexed by source) into inboxes
  /// (indexed by destination) and computes the round charge.
  /// send_bits/recv_bits (length k) are incremented per machine.
  /// Self-addressed messages are rejected (throw): machines talk to
  /// themselves via local state, not the network.
  DeliveryStats deliver(std::vector<std::vector<Message>>& outboxes,
                        std::vector<std::vector<Message>>& inboxes,
                        std::span<std::uint64_t> send_bits,
                        std::span<std::uint64_t> recv_bits);

 private:
  std::size_t k_;
  std::uint64_t bandwidth_;
  std::vector<std::uint64_t> link_bits_;      // k*k scratch
  std::vector<std::size_t> touched_links_;    // indices used this superstep
};

}  // namespace km
