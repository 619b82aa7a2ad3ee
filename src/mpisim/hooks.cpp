#include "mpisim/hooks.hpp"

#include <utility>

namespace smtbal::mpisim {

int node_priority_sum(const EngineControl& control, std::uint32_t node) {
  if (node >= control.num_nodes()) {
    throw InvalidArgument("node_priority_sum: node " + std::to_string(node) +
                          " out of range [0, " +
                          std::to_string(control.num_nodes()) + ")");
  }
  int sum = 0;
  for (std::size_t r = 0; r < control.num_ranks(); ++r) {
    const RankId rank{static_cast<std::uint32_t>(r)};
    if (control.node_of(rank) != node) continue;
    // An exited rank's context reports OFF (level 0), so it naturally
    // drops out of the sum.
    sum += control.rank_priority(rank);
  }
  return sum;
}

NodeView::NodeView(EngineControl& global, std::uint32_t node,
                   std::vector<std::size_t> global_ranks)
    : global_(&global), node_(node), global_ranks_(std::move(global_ranks)) {
  const Placement& within = global.placement();
  placement_.cpu_of_rank.reserve(global_ranks_.size());
  for (const std::size_t g : global_ranks_) {
    placement_.cpu_of_rank.push_back(within.cpu_of_rank[g]);
  }
}

void NodeView::check_local_node(std::uint32_t node, const char* who) const {
  if (node >= 1) {
    throw InvalidArgument(std::string(who) + ": node " + std::to_string(node) +
                          " out of range [0, 1) — a node view is one node");
  }
}

std::uint32_t NodeView::threads_per_core_of(std::uint32_t node) const {
  check_local_node(node, "threads_per_core_of");
  return global_->threads_per_core_of(node_);
}

std::uint32_t NodeView::num_cores_of(std::uint32_t node) const {
  check_local_node(node, "num_cores_of");
  return global_->num_cores_of(node_);
}

}  // namespace smtbal::mpisim
