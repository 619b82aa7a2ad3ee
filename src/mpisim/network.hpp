// Intra-node message transfer model: latency + bandwidth (the paper's
// experiments run all ranks inside one OpenPower 710 node over MPICH
// shared-memory transport), and the MessageCostModel seam through which
// the simulation core prices every transfer and cross-node migration.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace smtbal::mpisim {

struct NetworkConfig {
  SimTime base_latency = 2e-6;       ///< per-message software latency
  double bandwidth_bytes_per_s = 1.5e9;  ///< shared-memory copy bandwidth

  void validate() const;
};

class Network {
 public:
  explicit Network(NetworkConfig config);

  /// Arrival time of a message injected at `send_time`.
  [[nodiscard]] SimTime arrival_time(SimTime send_time, std::uint64_t bytes) const;

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

 private:
  NetworkConfig config_;
};

/// Prices message transfers and rank migrations for the simulation core.
/// The flat engine uses NetworkCostModel (one node: every transfer is
/// intra-node); the cluster engine routes by node and may mutate
/// link-contention state on arrival_time / migration_arrival calls
/// (invoked exactly once per send or migration, in deterministic
/// simulation order).
class MessageCostModel {
 public:
  virtual ~MessageCostModel() = default;

  /// Arrival time of a message from a rank on `src_node` to a rank on
  /// `dst_node`, injected at `send_time`. May be stateful (link
  /// contention).
  virtual SimTime arrival_time(SimTime send_time, std::uint32_t src_node,
                               std::uint32_t dst_node, std::uint64_t bytes) = 0;

  /// Cost of one point-to-point step of a global collective's binomial
  /// tree. Must be stateless (called per arriving rank).
  virtual SimTime collective_step_cost(std::uint64_t bytes) = 0;

  /// When the state of a rank migrating from `from_node` to `to_node` at
  /// `now` lands (>= now); the rank stalls until then. May be stateful.
  /// The default is a free, instantaneous migration.
  virtual SimTime migration_arrival(SimTime now, std::uint32_t from_node,
                                    std::uint32_t to_node) {
    (void)from_node, (void)to_node;
    return now;
  }
};

/// The flat engine's cost model: every rank shares one node, so every
/// transfer goes through the intra-node Network.
class NetworkCostModel final : public MessageCostModel {
 public:
  explicit NetworkCostModel(NetworkConfig config) : network_(config) {}

  SimTime arrival_time(SimTime send_time, std::uint32_t /*src_node*/,
                       std::uint32_t /*dst_node*/,
                       std::uint64_t bytes) override {
    return network_.arrival_time(send_time, bytes);
  }
  SimTime collective_step_cost(std::uint64_t bytes) override {
    return network_.arrival_time(0.0, bytes);
  }

 private:
  Network network_;
};

}  // namespace smtbal::mpisim
