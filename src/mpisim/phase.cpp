#include "mpisim/phase.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"

namespace smtbal::mpisim {

RankProgram& RankProgram::compute(isa::KernelId kernel, double instructions,
                                  trace::RankState traced_as) {
  SMTBAL_REQUIRE(instructions >= 0.0, "instruction count must be >= 0");
  phases.push_back(ComputePhase{kernel, instructions, traced_as});
  return *this;
}

RankProgram& RankProgram::barrier() {
  phases.push_back(BarrierPhase{});
  return *this;
}

RankProgram& RankProgram::send(RankId peer, std::uint64_t bytes, int tag) {
  phases.push_back(SendPhase{peer, bytes, tag});
  return *this;
}

RankProgram& RankProgram::recv(RankId peer, std::uint64_t bytes, int tag) {
  phases.push_back(RecvPhase{peer, bytes, tag});
  return *this;
}

RankProgram& RankProgram::wait_all() {
  phases.push_back(WaitAllPhase{});
  return *this;
}

RankProgram& RankProgram::allreduce(std::uint64_t bytes) {
  SMTBAL_REQUIRE(bytes > 0, "allreduce payload must be non-empty");
  phases.push_back(AllreducePhase{bytes});
  return *this;
}

RankProgram& RankProgram::delay(SimTime duration, trace::RankState traced_as) {
  SMTBAL_REQUIRE(duration >= 0.0, "delay must be >= 0");
  phases.push_back(DelayPhase{duration, traced_as});
  return *this;
}

void Application::validate() const {
  SMTBAL_REQUIRE(!ranks.empty(), "application has no ranks");

  // The collective sequence (kind + payload) must be identical across
  // ranks: MPI collectives are matched by order on the communicator.
  std::vector<std::pair<char, std::uint64_t>> reference_collectives;
  bool first = true;
  // One (src, dst, tag) entry per send and per recv; the traffic is
  // balanced when the two sorted lists are equal.
  using Channel = std::tuple<std::uint32_t, std::uint32_t, int>;
  std::vector<Channel> sends;
  std::vector<Channel> recvs;

  for (std::size_t r = 0; r < ranks.size(); ++r) {
    std::vector<std::pair<char, std::uint64_t>> collectives;
    for (const Phase& phase : ranks[r].phases) {
      if (std::holds_alternative<BarrierPhase>(phase)) {
        collectives.emplace_back('B', 0);
      } else if (const auto* reduce = std::get_if<AllreducePhase>(&phase)) {
        collectives.emplace_back('R', reduce->bytes);
      } else if (const auto* send = std::get_if<SendPhase>(&phase)) {
        SMTBAL_REQUIRE(send->peer.value() < ranks.size(),
                       "send peer out of range");
        SMTBAL_REQUIRE(send->peer.value() != r, "send to self");
        sends.emplace_back(static_cast<std::uint32_t>(r), send->peer.value(),
                           send->tag);
      } else if (const auto* recv = std::get_if<RecvPhase>(&phase)) {
        SMTBAL_REQUIRE(recv->peer.value() < ranks.size(),
                       "recv peer out of range");
        SMTBAL_REQUIRE(recv->peer.value() != r, "recv from self");
        recvs.emplace_back(recv->peer.value(), static_cast<std::uint32_t>(r),
                           recv->tag);
      }
    }
    if (first) {
      reference_collectives = std::move(collectives);
      first = false;
    } else {
      SMTBAL_REQUIRE(collectives == reference_collectives,
                     "rank collective sequences differ: the collective "
                     "would deadlock");
    }
  }
  std::sort(sends.begin(), sends.end());
  std::sort(recvs.begin(), recvs.end());
  // At the first difference of the sorted lists the smaller entry is the
  // lowest channel whose send and recv counts differ (every lower channel
  // lies wholly inside the equal prefix of both).
  const auto [send_it, recv_it] =
      std::mismatch(sends.begin(), sends.end(), recvs.begin(), recvs.end());
  if (send_it != sends.end() || recv_it != recvs.end()) {
    const bool send_lower = recv_it == recvs.end() ||
                            (send_it != sends.end() && *send_it < *recv_it);
    const Channel& lowest = send_lower ? *send_it : *recv_it;
    throw InvalidArgument("unmatched send/recv traffic between ranks " +
                          std::to_string(std::get<0>(lowest)) + " -> " +
                          std::to_string(std::get<1>(lowest)));
  }
}

Placement Placement::identity(std::size_t num_ranks,
                              std::uint32_t slots_per_core) {
  Placement placement;
  for (std::size_t r = 0; r < num_ranks; ++r) {
    const auto linear = static_cast<std::uint32_t>(r);
    placement.cpu_of_rank.push_back(CpuId{CoreId{linear / slots_per_core},
                                          ThreadSlot{linear % slots_per_core}});
  }
  return placement;
}

Placement Placement::from_linear(const std::vector<std::uint32_t>& cpus,
                                 std::uint32_t slots_per_core) {
  Placement placement;
  for (std::uint32_t linear : cpus) {
    placement.cpu_of_rank.push_back(CpuId{CoreId{linear / slots_per_core},
                                          ThreadSlot{linear % slots_per_core}});
  }
  return placement;
}

}  // namespace smtbal::mpisim
