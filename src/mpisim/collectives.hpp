// Synchronisation bookkeeping of the engine: global collectives (barrier /
// allreduce arrival counting and the iterative zero-cost release queue)
// and point-to-point message matching (send mailbox + posted-receive
// matching for waitall).
//
// The release queue exists because completing a rank from a zero-cost
// collective can bring it straight to the *next* collective
// (back-to-back barriers), re-entering the release path and mutating the
// arrival counter mid-release. Naively recursing released once per
// consecutive zero-cost collective (unbounded stack depth) while
// iterating state it was mutating; instead releasable ranks are queued
// and drained only by the outermost call.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mpisim/rank_state.hpp"

namespace smtbal::mpisim {

/// Engine-side callback used by Collectives to complete a released rank
/// (which advances it and may re-enter Collectives).
class CollectiveClient {
 public:
  virtual void release_rank(std::size_t rank) = 0;

 protected:
  ~CollectiveClient() = default;
};

class Collectives {
 public:
  explicit Collectives(std::size_t num_ranks) : num_ranks_(num_ranks) {}

  /// One more rank arrived at the current global collective. Returns true
  /// when it is the last arriver (the collective is complete and the
  /// caller must set every participant's release time).
  [[nodiscard]] bool arrive() {
    if (++barrier_arrived_ < num_ranks_) return false;
    barrier_arrived_ = 0;
    return true;
  }

  /// Arrival count of the in-progress collective. Conservation invariant
  /// (checked by simcheck): equals the number of ranks sitting at a
  /// collective whose release time is still unknown.
  [[nodiscard]] std::size_t arrived() const { return barrier_arrived_; }

  /// Releases every rank sitting at a collective whose release time is
  /// due (`ready_at[r] <= now + eps`), in rank order, re-entrant safe: a
  /// release cascade that arrives at — and completes — a further
  /// zero-cost collective appends to the queue the outermost call drains.
  /// `states` and `ready_at` are the engine's rank-indexed SoA views.
  void release_due(SimTime now, SimTime eps, std::span<const RunState> states,
                   std::span<const SimTime> ready_at, CollectiveClient& client);

  /// Records a message handed to the network at send time; `arrival` is
  /// when it reaches the receiver. FIFO per (src, dst, tag) channel, in
  /// send order — exactly MPI's non-overtaking guarantee.
  void post_send(std::uint32_t src, std::uint32_t dst, int tag,
                 SimTime arrival);

  /// Matches `posted` receives against sent messages (arrived or still in
  /// flight); returns true when all are matched, in which case
  /// `max_arrival` holds the latest arrival time among them.
  bool match_all(std::uint32_t rank, std::vector<RecvReq>& posted,
                 SimTime& max_arrival);

 private:
  /// A point-to-point channel: messages from `src` to `dst` with `tag`.
  struct Channel {
    std::uint32_t src;
    std::uint32_t dst;
    int tag;
    bool operator==(const Channel&) const = default;
  };
  struct ChannelHash {
    std::size_t operator()(const Channel& c) const;
  };
  /// Arrival times of a channel's unmatched messages in send order: a
  /// vector read from `head`, rewound once drained so a steady exchange
  /// reuses its storage instead of allocating per message.
  struct Fifo {
    std::vector<SimTime> arrivals;
    std::size_t head = 0;
  };

  std::size_t num_ranks_;
  std::size_t barrier_arrived_ = 0;
  /// In-flight and arrived messages per channel. Only per-channel order
  /// matters (matching looks up one channel at a time), so the channels
  /// are hashed, not ordered.
  std::unordered_map<Channel, Fifo, ChannelHash> messages_;
  /// Ranks releasable from a due collective; drained iteratively by the
  /// outermost release_due (see file comment).
  std::vector<std::size_t> release_queue_;
  bool releasing_ = false;
};

}  // namespace smtbal::mpisim
