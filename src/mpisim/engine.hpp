// Discrete-event MPI application engine, co-simulated with the SMT chip.
//
// The engine advances a set of rank programs through piecewise-constant-
// rate integration: whenever any context's (kernel, priority) pair
// changes — a rank blocks in MPI, a priority is rewritten, a noise event
// preempts a CPU — the per-context instruction rates are re-derived from
// the cycle-level chip model via the memoising ThroughputSampler, and the
// next event time is computed analytically. A blocked rank busy-waits
// (MPICH's progress loop), so it keeps occupying its SMT context with the
// spin kernel — the very reason hardware priorities help.
//
// Internally the engine is an event kernel (event_queue.hpp): completions
// are predicted into a binary-heap queue and popped in O(log ranks)
// instead of rescanning every rank per step, with stale predictions
// invalidated lazily by generation counters. Everything that happens is
// published on an ObserverBus (observer.hpp): tracing, metrics and
// balance-policy dispatch are observers, and callers can attach their own
// via add_observer().
//
// One implementation, two facades: MultiNodeEngine is the single
// node-indexed implementation of the EngineControl surface (priorities,
// seat moves, migration, budgets) and of the run() wiring over the
// detail::Sim event loop (sim.hpp). Engine is its one-node facade — it
// validates an EngineConfig and prices every transfer through the
// intra-node NetworkCostModel; cluster::ClusterEngine is the M-node
// facade (cluster/engine.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/metrics.hpp"
#include "mpisim/network.hpp"
#include "mpisim/observer.hpp"
#include "mpisim/phase.hpp"
#include "os/kernel.hpp"
#include "os/noise.hpp"
#include "smt/sampler.hpp"
#include "trace/tracer.hpp"

namespace smtbal::mpisim {

namespace detail {
class Sim;
}  // namespace detail

struct EngineConfig {
  smt::ChipConfig chip;
  smt::ThroughputSampler::Options sampler{};
  os::KernelFlavor kernel_flavor = os::KernelFlavor::kPatched;
  NetworkConfig network{};
  /// OS noise injection; silent by default (the paper's tables measure
  /// intrinsic imbalance). Set noise_horizon > 0 to enable.
  os::NoiseConfig noise = os::NoiseConfig::silent();
  SimTime noise_horizon = 0.0;
  /// Collective release cost after the last rank arrives.
  SimTime barrier_latency = 2e-6;
  /// Kernel a blocked rank runs in its busy-wait loop.
  std::string spin_kernel = std::string(isa::kKernelSpinWait);
  /// Runaway guards.
  SimTime max_sim_time = 1e6;
  std::uint64_t max_events = 10'000'000;

  /// Structural sanity checks on the configuration itself: positive
  /// runaway guards, finite non-negative latencies, a registered spin
  /// kernel, a chip the sampler can model. Throws InvalidArgument with a
  /// message naming the offending field.
  void validate() const;
};

/// The outcome of one engine run. Move-only: it carries the full trace
/// (potentially millions of intervals), so aggregation layers hand it
/// around by move instead of copying.
struct RunResult {
  trace::Tracer trace{};
  SimTime exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t priority_resets = 0;
  /// This run's own sampler activity, summed over the engine's samplers:
  /// each sampler's counters at the end of run() minus those at its start.
  smt::SamplerStats sampler_stats;
  MetricsReport metrics;

  RunResult() = default;
  RunResult(RunResult&&) = default;
  RunResult& operator=(RunResult&&) = default;
  RunResult(const RunResult&) = delete;
  RunResult& operator=(const RunResult&) = delete;
};

/// The one node-indexed implementation of the EngineControl surface and
/// of the run() wiring, shared by Engine (one node) and
/// cluster::ClusterEngine (M nodes). Ranks carry global ids; each is
/// hosted by node_of_rank()[r] on the within-node seat placement()[r].
/// A facade derives the per-node chips and samplers, supplies the
/// MessageCostModel, and composes its own result type around run_nodes().
class MultiNodeEngine : public EngineControl {
 public:
  /// Everything a facade hands the shared implementation, validated.
  struct Setup {
    Application app;
    Placement placement;  ///< within-node seat per rank
    std::vector<std::uint32_t> node_of_rank;
    /// Knobs shared by every node: kernel flavor, spin kernel, noise,
    /// barrier latency, runaway guards.
    EngineConfig config;
    std::vector<smt::ChipConfig> chips;  ///< one per node
    /// The distinct samplers (owned here) and each node's one among them.
    std::vector<std::shared_ptr<smt::ThroughputSampler>> samplers;
    std::vector<smt::ThroughputSampler*> sampler_of_node;
  };

  /// Installs a balancing policy (non-owning; must outlive run()). The
  /// policy sees global rank ids and the within-node placement.
  void set_policy(BalancePolicy* policy) { policy_ = policy; }

  /// Attaches an additional observer to the run's bus (non-owning; must
  /// outlive run()). Must be called before run().
  void add_observer(SimObserver* observer);

  // --- EngineControl (global rank ids) ---------------------------------------
  void set_rank_priority(RankId rank, int priority) override;
  [[nodiscard]] int rank_priority(RankId rank) const override;
  /// The *within-node* placement (node_of_rank() names the node).
  [[nodiscard]] const Placement& placement() const override {
    return placement_;
  }
  [[nodiscard]] std::size_t num_ranks() const override { return app_.size(); }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(chips_.size());
  }
  [[nodiscard]] std::uint32_t threads_per_core_of(
      std::uint32_t node) const override;
  [[nodiscard]] std::uint32_t num_cores_of(std::uint32_t node) const override;
  [[nodiscard]] std::uint32_t node_of(RankId rank) const override;
  /// Within-node moves only: the target seat must be free on the rank's
  /// hosting node (cross-node moves go through migrate_rank).
  void move_rank(RankId rank, CpuId to) override;
  /// Same-node pairs only; throws a value-bearing error on a cross-node
  /// pair.
  void swap_ranks(RankId a, RankId b) override;
  /// Cross-node rank migration: hands the process over between the node
  /// kernels (priority travels by rewrite), reseats the rank in the
  /// simulation core, and stalls it while its resident state crosses to
  /// the target node (MessageCostModel::migration_arrival). Same-node
  /// targets degrade to move_rank.
  void migrate_rank(RankId rank, std::uint32_t node, CpuId to) override;
  void install_budgets(int per_node_budget) override;
  void transfer_budget(std::uint32_t from, std::uint32_t to,
                       int amount) override;
  [[nodiscard]] int node_budget(std::uint32_t node) const override;

  /// Node `node`'s chip configuration.
  [[nodiscard]] const smt::ChipConfig& node_chip(std::uint32_t node) const {
    return chips_[node];
  }
  /// Hosting node per global rank (updated by migrate_rank).
  [[nodiscard]] const std::vector<std::uint32_t>& node_of_rank() const {
    return node_of_rank_;
  }

 protected:
  /// Per-source-node cross-node migration accounting.
  struct MigrationCounters {
    std::uint64_t migrations = 0;
    SimTime stall = 0.0;
  };

  explicit MultiNodeEngine(Setup setup);

  /// Runs the application to completion and returns the trace + metrics,
  /// with sampler stats summed over the distinct samplers and priority
  /// resets over the node kernels. `extra` (may be null) is attached to
  /// the bus ahead of the policy, so a policy's on_epoch sees what it
  /// accumulated up to the epoch boundary. May be called once.
  RunResult run_nodes(SimObserver* extra);

  /// The per-node knobs every node shares.
  [[nodiscard]] const EngineConfig& node_config() const { return node_config_; }
  [[nodiscard]] const MigrationCounters& migrations_from(
      std::uint32_t node) const {
    return migration_of_node_[node];
  }

 private:
  /// The facade's transfer and migration pricing; lives as long as the
  /// engine.
  virtual MessageCostModel& cost_model() = 0;

  /// Throws a value-bearing InvalidArgument unless `rank` is in range.
  void check_rank(RankId rank, const char* who) const;
  /// Throws a value-bearing InvalidArgument unless `node` is in range.
  void check_node(std::uint32_t node, const char* who) const;
  /// Throws a value-bearing InvalidArgument unless `to` is a seat of
  /// `node`'s chip.
  void check_seat(std::uint32_t node, CpuId to, const char* who) const;
  /// Throws InvalidArgument unless run() has spawned the processes.
  void require_spawned(const char* who) const;
  /// Sum of effective priority levels over `node`'s engaged contexts (the
  /// quantity an installed budget caps).
  [[nodiscard]] int priority_sum(std::uint32_t node) const;

  Application app_;
  Placement placement_;
  std::vector<std::uint32_t> node_of_rank_;
  EngineConfig node_config_;
  std::vector<smt::ChipConfig> chips_;
  std::vector<std::shared_ptr<smt::ThroughputSampler>> samplers_;
  std::vector<smt::ThroughputSampler*> sampler_of_node_;
  std::vector<std::unique_ptr<os::KernelModel>> kernels_;
  std::vector<MigrationCounters> migration_of_node_;
  BalancePolicy* policy_ = nullptr;
  std::vector<SimObserver*> observers_;
  std::vector<Pid> pid_of_rank_;
  /// Per-node priority-weight budgets; empty until install_budgets().
  std::vector<int> budgets_;
  bool ran_ = false;
  /// Set while run() is live so actuations notify the bus with the
  /// current simulation time and invalidate cached rates.
  detail::Sim* sim_ = nullptr;
};

/// The one-node engine: the paper's single OpenPower 710 node, every
/// transfer priced by the intra-node Network.
class Engine final : public MultiNodeEngine {
 public:
  /// Builds an engine with its own sampler.
  Engine(Application app, Placement placement, EngineConfig config = {});

  /// Builds an engine sharing a sampler with other runs of the same chip
  /// configuration (keeps the cycle-level memoisation warm across cases).
  Engine(Application app, Placement placement, EngineConfig config,
         std::shared_ptr<smt::ThroughputSampler> sampler);

  /// Runs the application to completion and returns the trace + metrics.
  /// May be called once per Engine.
  RunResult run() { return run_nodes(nullptr); }

 private:
  MessageCostModel& cost_model() override { return cost_; }

  NetworkCostModel cost_;
};

}  // namespace smtbal::mpisim
