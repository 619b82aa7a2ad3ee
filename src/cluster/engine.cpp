#include "cluster/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace smtbal::cluster {

bool ClusterConfig::homogeneous() const {
  return std::all_of(node_shapes.begin(), node_shapes.end(),
                     [](const NodeShape& s) { return s.is_default(); });
}

ClusterConfig::NodeShape ClusterConfig::shape_of(std::uint32_t n) const {
  return n < node_shapes.size() ? node_shapes[n] : NodeShape{};
}

smt::ChipConfig ClusterConfig::node_chip(std::uint32_t n) const {
  const NodeShape shape = shape_of(n);
  smt::ChipConfig chip = node.chip;
  if (shape.num_cores != 0) {
    chip.num_cores = shape.num_cores;
    chip.memory.num_cores = shape.num_cores;
  }
  if (shape.threads_per_core != 0) {
    chip.core.threads_per_core = shape.threads_per_core;
  }
  chip.frequency_ghz *= shape.clock_scale;
  return chip;
}

void ClusterConfig::validate() const {
  SMTBAL_REQUIRE(num_nodes >= 1, "ClusterConfig.num_nodes must be >= 1");
  node.validate();
  SMTBAL_REQUIRE(node_shapes.size() <= num_nodes,
                 "ClusterConfig.node_shapes has more entries than num_nodes");
  for (std::size_t n = 0; n < node_shapes.size(); ++n) {
    const NodeShape& shape = node_shapes[n];
    if (!(shape.clock_scale > 0.0) || !std::isfinite(shape.clock_scale)) {
      throw InvalidArgument("ClusterConfig.node_shapes[" + std::to_string(n) +
                            "].clock_scale must be positive and finite");
    }
    if (shape.is_default()) continue;
    // The derived chip must be a valid engine configuration in its own
    // right (context counts, sampler limits, memory shape agreement).
    mpisim::EngineConfig derived = node;
    derived.chip = node_chip(static_cast<std::uint32_t>(n));
    try {
      derived.validate();
    } catch (const std::exception& e) {
      throw InvalidArgument("ClusterConfig.node_shapes[" + std::to_string(n) +
                            "] derives an invalid node config: " + e.what());
    }
  }
  interconnect.validate();
}

ClusterCostModel::ClusterCostModel(const ClusterConfig& config)
    : network_(config.node.network),
      interconnect_(config.interconnect, config.num_nodes),
      migration_bytes_(config.migration.resident_state_bytes) {}

SimTime ClusterCostModel::arrival_time(SimTime send_time,
                                       std::uint32_t src_node,
                                       std::uint32_t dst_node,
                                       std::uint64_t bytes) {
  if (src_node == dst_node) return network_.arrival_time(send_time, bytes);
  return interconnect_.transfer(send_time, src_node, dst_node, bytes);
}

SimTime ClusterCostModel::collective_step_cost(std::uint64_t bytes) {
  // The binomial tree's slowest step crosses nodes, so a multi-node
  // collective is paced by the pricier of the two paths; with one node
  // this is exactly the flat engine's cost (M=1 bit-identity).
  const SimTime intra = network_.arrival_time(0.0, bytes);
  if (interconnect_.num_nodes() <= 1) return intra;
  return std::max(intra, interconnect_.uncontended_cost(bytes));
}

SimTime ClusterCostModel::migration_arrival(SimTime now,
                                            std::uint32_t from_node,
                                            std::uint32_t to_node) {
  if (migration_bytes_ == 0) return now;
  return interconnect_.transfer(now, from_node, to_node, migration_bytes_);
}

namespace {

/// Validates the cluster configuration and placement, derives the
/// per-node chips and gives every distinct chip shape one sampler.
mpisim::MultiNodeEngine::Setup cluster_nodes(
    mpisim::Application app, ClusterPlacement placement,
    const ClusterConfig& config,
    std::shared_ptr<smt::ThroughputSampler> sampler) {
  config.validate();
  mpisim::MultiNodeEngine::Setup setup;
  setup.config = config.node;
  setup.chips.reserve(config.num_nodes);
  for (std::uint32_t n = 0; n < config.num_nodes; ++n) {
    setup.chips.push_back(config.node_chip(n));
  }
  // Nodes with the base chip share one sampler, so a load measured on any
  // of them is memoised for all of them. Each distinct overridden shape
  // gets its own sampler (measure() runs on that shape's chip), attached
  // to the base sampler's shared cache — shape-folded keys keep the
  // share collision-free.
  if (sampler == nullptr) {
    sampler = std::make_shared<smt::ThroughputSampler>(config.node.chip,
                                                       config.node.sampler);
  }
  setup.samplers.push_back(sampler);
  for (const smt::ChipConfig& chip : setup.chips) {
    smt::ThroughputSampler* node_sampler = nullptr;
    for (const auto& existing : setup.samplers) {
      if (existing->chip_config() == chip) {
        node_sampler = existing.get();
        break;
      }
    }
    if (node_sampler == nullptr) {
      auto shaped =
          std::make_shared<smt::ThroughputSampler>(chip, config.node.sampler);
      shaped->attach_shared_cache(sampler->shared_cache());
      node_sampler = shaped.get();
      setup.samplers.push_back(std::move(shaped));
    }
    setup.sampler_of_node.push_back(node_sampler);
  }
  SMTBAL_REQUIRE(placement.size() == app.size(),
                 "cluster placement size must match rank count");
  std::vector<std::uint32_t> contexts_of_node;
  std::vector<std::uint32_t> tpc_of_node;
  for (const smt::ChipConfig& chip : setup.chips) {
    contexts_of_node.push_back(chip.num_contexts());
    tpc_of_node.push_back(chip.threads_per_core());
  }
  placement.validate(contexts_of_node, tpc_of_node);
  app.validate();
  setup.app = std::move(app);
  setup.placement = std::move(placement.within);
  setup.node_of_rank = std::move(placement.node_of_rank);
  return setup;
}

}  // namespace

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config)
    : ClusterEngine(std::move(app), std::move(placement), std::move(config),
                    nullptr) {}

ClusterEngine::ClusterEngine(mpisim::Application app,
                             ClusterPlacement placement, ClusterConfig config,
                             std::shared_ptr<smt::ThroughputSampler> sampler)
    : MultiNodeEngine(cluster_nodes(std::move(app), std::move(placement),
                                    config, std::move(sampler))),
      config_(std::move(config)),
      cost_(config_) {}

ClusterRunResult ClusterEngine::run() {
  ClusterRunResult result;
  // The communication graph is attached on cluster runs only, ahead of
  // the policy: a policy's on_epoch must see the traffic accumulated up
  // to the epoch boundary.
  result.flat = run_nodes(&comm_observer_);
  result.node_of_rank = node_of_rank();
  result.nodes.assign(num_nodes(), NodeStats{});
  for (std::size_t r = 0; r < result.flat.metrics.ranks.size(); ++r) {
    NodeStats& node = result.nodes[result.node_of_rank[r]];
    const mpisim::RankMetrics& rank = result.flat.metrics.ranks[r];
    node.compute += rank.compute;
    node.wait += rank.wait;
    node.spin += rank.spin;
    node.preempted += rank.preempted;
    ++node.ranks;
  }
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    const MigrationCounters& counters = migrations_from(n);
    result.nodes[n].migrations = counters.migrations;
    result.nodes[n].bytes_migrated =
        counters.migrations * config_.migration.resident_state_bytes;
    result.nodes[n].migration_stall = counters.stall;
  }
  return result;
}

}  // namespace smtbal::cluster
