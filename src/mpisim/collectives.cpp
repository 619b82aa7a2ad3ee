#include "mpisim/collectives.hpp"

#include <algorithm>

namespace smtbal::mpisim {

void Collectives::release_due(SimTime now, SimTime eps,
                              std::span<const RunState> states,
                              std::span<const SimTime> ready_at,
                              CollectiveClient& client) {
  // Snapshot the releasable ranks first, then complete them (a completion
  // may invalidate a queued entry — e.g. advance the rank to the next
  // collective — so re-check at pop time).
  for (std::size_t r = 0; r < states.size(); ++r) {
    if (states[r] == RunState::kAtBarrier && ready_at[r] <= now + eps) {
      release_queue_.push_back(r);
    }
  }
  if (releasing_) return;  // the outermost release_due drains
  releasing_ = true;
  for (std::size_t i = 0; i < release_queue_.size(); ++i) {
    const std::size_t r = release_queue_[i];
    if (states[r] == RunState::kAtBarrier && ready_at[r] <= now + eps) {
      client.release_rank(r);
    }
  }
  release_queue_.clear();
  releasing_ = false;
}

std::size_t Collectives::ChannelHash::operator()(const Channel& c) const {
  std::uint64_t h = (std::uint64_t{c.src} << 32 | c.dst) *
                    0x9e37'79b9'7f4a'7c15ULL;
  h ^= static_cast<std::uint32_t>(c.tag) * 0xc2b2'ae3d'27d4'eb4fULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

void Collectives::post_send(std::uint32_t src, std::uint32_t dst, int tag,
                            SimTime arrival) {
  messages_[Channel{src, dst, tag}].arrivals.push_back(arrival);
}

bool Collectives::match_all(std::uint32_t rank, std::vector<RecvReq>& posted,
                            SimTime& max_arrival) {
  max_arrival = 0.0;
  bool all = true;
  for (RecvReq& req : posted) {
    if (!req.matched) {
      const auto it = messages_.find(Channel{req.peer, rank, req.tag});
      Fifo* fifo = it == messages_.end() ? nullptr : &it->second;
      if (fifo != nullptr && fifo->head < fifo->arrivals.size()) {
        req.matched = true;
        req.arrival = fifo->arrivals[fifo->head++];
        if (fifo->head == fifo->arrivals.size()) {
          fifo->arrivals.clear();
          fifo->head = 0;
        }
      }
    }
    if (req.matched) {
      max_arrival = std::max(max_arrival, req.arrival);
    } else {
      all = false;
    }
  }
  return all;
}

}  // namespace smtbal::mpisim
