// The multi-node event loop behind mpisim::MultiNodeEngine, the one
// engine implementation that mpisim::Engine (one node) and
// cluster::ClusterEngine (M nodes) are facades over.
//
// The loop drives M nodes — each with its own smt::Chip, os::KernelModel
// and ThroughputSampler — coupled by cross-node messages and global
// collectives, and is parameterized over:
//
//   * a vector of NodeCtx (per-node chip config / sampler / kernel);
//     the flat engine passes exactly one;
//   * a node_of_rank map alongside the within-node Placement;
//   * a MessageCostModel (network.hpp) that prices every point-to-point
//     transfer and collective tree step — the seam where the cluster
//     layer routes intra-node traffic through mpisim::Network and
//     inter-node traffic through cluster::Interconnect (with link
//     contention).
//
// With one node the generalisation is arithmetic-free: the same loads are
// built, the same rates sampled, the same events pushed in the same
// order, so a cluster of M=1 is bit-identical to the flat engine by
// construction (tests/cluster_test.cpp locks this in).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "mpisim/audit.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/event_queue.hpp"
#include "mpisim/network.hpp"
#include "mpisim/observer.hpp"
#include "mpisim/rank_state.hpp"
#include "os/noise.hpp"

namespace smtbal::mpisim {

namespace detail {

/// One simulated node, owned by the calling MultiNodeEngine.
/// The Sim reads the chip config, samples rates through the sampler and
/// queries/mutates the kernel's process table; all three must outlive the
/// run.
struct NodeCtx {
  const smt::ChipConfig* chip = nullptr;
  smt::ThroughputSampler* sampler = nullptr;
  os::KernelModel* kernel = nullptr;
};

struct RunStats {
  SimTime end_time = 0.0;
  std::uint64_t events = 0;
};

/// The whole per-run simulation state; the owning engine builds one, runs
/// it, and composes the result from the observers.
///
/// The run is a pure event loop: rank completions are *predicted* into the
/// event queue (compute finish times from the piecewise-constant rates,
/// delay ends, message arrivals, barrier releases, noise windows) and
/// popped in (time, seq) order. A prediction invalidated by a rate change
/// or preemption is not searched for in the heap; the rank's generation
/// counter is bumped and the stale entry is discarded when it surfaces.
class Sim final : public CollectiveClient, public AuditSource {
 public:
  /// `placement` holds each rank's within-node CPU; `node_of_rank` names
  /// the node (index into `nodes`) hosting it. `config` supplies the
  /// per-node knobs shared by every node: barrier latency, spin kernel,
  /// noise, runaway guards.
  Sim(const Application& app, const Placement& placement,
      const std::vector<std::uint32_t>& node_of_rank,
      const EngineConfig& config, std::vector<NodeCtx> nodes,
      MessageCostModel& cost, const std::vector<Pid>& pids, ObserverBus& bus);

  RunStats run();

  [[nodiscard]] SimTime now() const { return now_; }

  /// EngineControl::set_rank_priority landed while the run is live:
  /// publish the change (the next refresh_rates() re-derives the affected
  /// rates).
  void notify_priority_change(RankId rank, int from, int to);

  /// EngineControl::move_rank / swap_ranks remapped a rank while the run
  /// is live (the kernel's process table and the engine's Placement are
  /// already updated): materialise the rank's compute progress on its old
  /// context, rebind the context maps, and invalidate its prediction the
  /// same way a priority change does — the next refresh_rates() sees the
  /// changed context words and re-derives the node's rates.
  void notify_placement_change(RankId rank, CpuId from, CpuId to);

  /// EngineControl::migrate_rank moved a rank to a (free) seat on another
  /// node while the run is live. The engine's node/placement/pid maps are
  /// already flipped; this rebinds the per-node rank lists and context
  /// maps, invalidates the rank's prediction, and — when `resume_at` lies
  /// in the future — stalls the rank on its new seat until the resident
  /// state finishes crossing the interconnect (reusing the noise
  /// preemption machinery, so the stall is visible as kPreempted).
  void notify_rank_migration(RankId rank, std::uint32_t from_node,
                             std::uint32_t to_node, CpuId to,
                             SimTime resume_at);

  /// AuditSource: snapshots the kernel state for invariant checkers
  /// (offered to observers via notify_bind at the start of run()).
  void invariant_audit(InvariantAudit& out) const override;

 private:
  /// Per-node runtime: the caller's context plus the node's position in
  /// the global context numbering, its resident ranks, its noise source
  /// and its memoised rate snapshot.
  struct NodeRt {
    NodeCtx ctx;
    std::uint32_t ctx_base = 0;       ///< first global context index
    std::vector<CpuId> cpus;          ///< within-node linear context -> CPU
    std::vector<std::size_t> ranks;   ///< resident ranks, ascending
    // Dirty-node refresh: refresh_rates() re-derives a node's words only
    // when `dirty` is set (some input of a word changed: a rank state or
    // kernel, the process table, a priority, a seat, a preemption window)
    // or when a preemption window that was open at the last derivation
    // has closed by now (`preempt_expiry`, the earliest such window end):
    // preempted() reads the clock, so a window can expire before its
    // kNoiseResume pops.
    bool dirty = true;
    SimTime preempt_expiry = kSimInf;
    os::NoiseSource noise;
    std::uint64_t load_key = 0;
    bool have_rates = false;
    smt::SampleResult rates{};
    // Incremental ChipLoad::key() derivation: `words` holds the last
    // derived per-context (kernel, priority) word (0 = idle), `chain[i]`
    // the key-hash chain state after mixing word i, and `used` the
    // engaged-prefix length the chain was seeded with. refresh_rates()
    // re-mixes only the suffix from the first changed word (from 0 when
    // the prefix length — the chain seed — changed), so the steady state
    // costs one word-compare per context, no hashing, no ChipLoad.
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> chain;
    std::uint32_t used = 0;
    /// The node sampler's chip-shape seed, cached so the chain reseed on a
    /// prefix-length change stays a constant-time XOR. Seeding the chain
    /// with it keeps the incremental keys bit-identical to what
    /// sampler->sample(load) would compute (ChipLoad::key(shape_seed)).
    std::uint64_t shape_seed = 0;
  };

  [[nodiscard]] NodeRt& node_of(std::size_t rank) {
    return nodes_[node_of_rank_[rank]];
  }
  [[nodiscard]] const NodeRt& node_of(std::size_t rank) const {
    return nodes_[node_of_rank_[rank]];
  }
  [[nodiscard]] bool preempted(std::size_t rank) const;
  /// Marks the node hosting `rank` for re-derivation on the next refresh.
  void touch(std::size_t rank) { node_of(rank).dirty = true; }
  /// Moves `rank` to a non-computing `state`, touching its node when the
  /// rank leaves kComputing (its context word turns to the spin kernel).
  void set_state(std::size_t rank, RunState state);
  [[nodiscard]] bool all_done() const { return done_count_ == ranks_.size(); }

  void set_trace(std::size_t rank, trace::RankState state);
  void emit_meta(EventKind kind, std::uint32_t subject);
  void finish_rank(std::size_t rank);
  void accrue(std::size_t rank);
  void start_segment(std::size_t rank, double rate);
  void invalidate_prediction(std::size_t rank);
  void refresh_rates();
  /// What context `ctx` of `node` runs right now (nullopt = idle): the one
  /// derivation behind both the incremental key words and build_load().
  [[nodiscard]] std::optional<smt::ContextLoad> context_load(
      const NodeRt& node, std::uint32_t ctx) const;
  [[nodiscard]] std::uint64_t context_word(const NodeRt& node,
                                           std::uint32_t ctx) const;
  /// Whether a clean node's cached words still equal a fresh derivation
  /// (the dirty-marking invariant, checked in debug builds).
  [[nodiscard]] bool words_current(const NodeRt& node) const;
  [[nodiscard]] smt::ChipLoad build_load(const NodeRt& node) const;
  void notify_receiver(std::size_t rank);
  void complete_block(std::size_t rank);
  void release_rank(std::size_t rank) override;
  void arrive_collective(std::size_t rank, SimTime release_cost);
  void advance_rank(std::size_t rank);
  void schedule_next_noise(NodeRt& node);
  void on_noise_preempt(std::uint32_t global_ctx);
  void on_noise_resume(std::uint32_t global_ctx);
  [[nodiscard]] bool is_stale(const Event& event) const;
  void dispatch(const Event& event);
  bool check_epochs();
  [[noreturn]] void deadlock() const;

  const Application& app_;
  const Placement& placement_;
  const std::vector<std::uint32_t>& node_of_rank_;
  const EngineConfig& config_;
  MessageCostModel& cost_;
  const std::vector<Pid>& pids_;
  ObserverBus& bus_;

  std::vector<NodeRt> nodes_;
  std::vector<RankRt> ranks_;  ///< cold per-rank bookkeeping
  // Hot rank state, structure-of-arrays (parallel, indexed by rank id):
  // the per-event scans — staleness checks, rate refresh, load words,
  // collective release, epoch minima — walk these dense arrays instead of
  // chasing per-rank objects.
  std::vector<RunState> state_;
  std::vector<isa::KernelId> kernel_of_rank_;
  std::vector<SimTime> ready_at_;  ///< barrier release / waitall completion
  std::vector<int> epochs_;
  // Compute integration: `remaining_` is exact as of `accrued_at_`; the
  // rank progresses at `rate_` until the next accrual boundary. A queued
  // kComputeDone prediction is valid while `pred_valid_` is set and its
  // generation matches `compute_gen_` (lazy invalidation).
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<SimTime> accrued_at_;
  std::vector<std::uint8_t> pred_valid_;
  std::vector<std::uint64_t> compute_gen_;
  isa::KernelId spin_kernel_;
  Collectives collectives_;
  EventQueue queue_;
  /// Global context index of each rank (node ctx_base + within-node
  /// linear) and its within-node linear CPU number.
  std::vector<std::uint32_t> ctx_of_rank_;
  std::vector<std::uint32_t> lin_of_rank_;
  /// Indexed by global context: resident rank (-1 = none) / node /
  /// preemption window end.
  std::vector<int> rank_on_linear_;
  std::vector<std::uint32_t> node_of_ctx_;
  std::vector<SimTime> preempt_until_;
  /// Ranks that entered a compute phase since the last refresh and still
  /// need a prediction (covers the no-load-change case: consecutive
  /// same-kernel segments, resumes from preemption).
  std::vector<std::size_t> fresh_compute_;
  std::size_t done_count_ = 0;
  int reported_epochs_ = 0;
  bool epochs_dirty_ = false;
  /// Whether the bus has any observer, latched once at the top of run();
  /// when false, every notify dispatch (and the Event materialisation
  /// feeding it) is skipped — the state-bearing work still runs.
  bool observed_ = true;
  /// False until run() starts: engines construct the Sim before a
  /// policy's on_start so pre-run priority/placement changes flow through
  /// the same notify paths, but those must not synthesise meta events
  /// (nothing is counting events yet).
  bool running_ = false;
  SimTime now_ = 0.0;
  std::uint64_t events_ = 0;  ///< processed (non-stale) events
  std::uint64_t pops_ = 0;    ///< all pops, the runaway guard's measure
};

}  // namespace detail
}  // namespace smtbal::mpisim
