#include "mpisim/sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace smtbal::mpisim {
namespace detail {

namespace {
constexpr SimTime kTimeEps = 1e-12;
}  // namespace

Sim::Sim(const Application& app, const Placement& placement,
         const std::vector<std::uint32_t>& node_of_rank,
         const EngineConfig& config, std::vector<NodeCtx> nodes,
         MessageCostModel& cost, const std::vector<Pid>& pids,
         ObserverBus& bus)
    : app_(app),
      placement_(placement),
      node_of_rank_(node_of_rank),
      config_(config),
      cost_(cost),
      pids_(pids),
      bus_(bus),
      nodes_(nodes.size()),
      ranks_(app.size()),
      state_(app.size(), RunState::kComputing),
      kernel_of_rank_(app.size(), 0),
      ready_at_(app.size(), kSimInf),
      epochs_(app.size(), 0),
      remaining_(app.size(), 0.0),
      rate_(app.size(), 0.0),
      accrued_at_(app.size(), 0.0),
      pred_valid_(app.size(), 0),
      compute_gen_(app.size(), 0),
      spin_kernel_(
          isa::KernelRegistry::instance().by_name(config.spin_kernel).id),
      collectives_(app.size()) {
  SMTBAL_CHECK(!nodes.empty());
  SMTBAL_CHECK(node_of_rank_.size() == app.size());

  std::uint32_t ctx_base = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    NodeRt& node = nodes_[n];
    node.ctx = nodes[n];
    node.ctx_base = ctx_base;
    node.shape_seed = node.ctx.sampler->shape_seed();
    const std::uint32_t contexts = node.ctx.chip->num_contexts();
    node.words.assign(contexts, 0);
    node.chain.assign(contexts, 0);
    for (std::uint32_t ctx = 0; ctx < contexts; ++ctx) {
      node.cpus.push_back(node.ctx.chip->cpu(ctx));
      node_of_ctx_.push_back(static_cast<std::uint32_t>(n));
    }
    if (config_.noise_horizon > 0.0) {
      // Every node draws from the same noise profile; the seed is offset
      // per node so timelines decorrelate (node 0 keeps the configured
      // seed, so single-node runs are unchanged).
      os::NoiseConfig noise_config = config_.noise;
      noise_config.seed += static_cast<std::uint64_t>(n);
      node.noise = os::NoiseSource(noise_config, config_.noise_horizon,
                                   contexts, node.ctx.chip->threads_per_core());
    }
    ctx_base += contexts;
  }
  rank_on_linear_.assign(ctx_base, -1);
  preempt_until_.assign(ctx_base, 0.0);

  ctx_of_rank_.resize(app.size());
  lin_of_rank_.resize(app.size());
  for (std::size_t r = 0; r < app.size(); ++r) {
    NodeRt& node = node_of(r);
    const std::uint32_t lin =
        placement_.cpu_of_rank[r].linear(node.ctx.chip->threads_per_core());
    lin_of_rank_[r] = lin;
    ctx_of_rank_[r] = node.ctx_base + lin;
    rank_on_linear_[ctx_of_rank_[r]] = static_cast<int>(r);
    node.ranks.push_back(r);
  }
}

bool Sim::preempted(std::size_t rank) const {
  return preempt_until_[ctx_of_rank_[rank]] > now_ + kTimeEps;
}

void Sim::set_state(std::size_t rank, RunState state) {
  if (state_[rank] == RunState::kComputing) touch(rank);
  state_[rank] = state;
}

void Sim::notify_priority_change(RankId rank, int from, int to) {
  touch(rank.value());
  // Pre-run changes (a policy's on_start) predate the event loop: no meta
  // event exists to count, only the observer callback at t = 0.
  if (running_) emit_meta(EventKind::kPriorityChange, rank.value());
  if (observed_) bus_.notify_priority_change(rank, from, to, now_);
}

void Sim::notify_placement_change(RankId rank, CpuId from, CpuId to) {
  const auto r = static_cast<std::size_t>(rank.value());
  SMTBAL_CHECK(r < ranks_.size());
  NodeRt& node = node_of(r);
  node.dirty = true;
  const std::uint32_t tpc = node.ctx.chip->threads_per_core();
  const std::uint32_t new_lin = to.linear(tpc);
  const std::uint32_t old_lin = lin_of_rank_[r];
  if (new_lin == old_lin) return;
  // Materialise the integration segment on the old context before the
  // remap (the sampled rate up to now belongs to the old seat).
  if (state_[r] == RunState::kComputing && !preempted(r)) accrue(r);
  // A swap notifies once per rank; by the second notification the first
  // rank already claimed this rank's old seat, so only clear a seat that
  // still maps here.
  if (rank_on_linear_[node.ctx_base + old_lin] == static_cast<int>(r)) {
    rank_on_linear_[node.ctx_base + old_lin] = -1;
  }
  lin_of_rank_[r] = new_lin;
  ctx_of_rank_[r] = node.ctx_base + new_lin;
  rank_on_linear_[ctx_of_rank_[r]] = static_cast<int>(r);
  if (state_[r] == RunState::kComputing) {
    invalidate_prediction(r);
    fresh_compute_.push_back(r);
  }
  if (observed_) bus_.notify_placement_change(rank, from, to, now_);
}

void Sim::notify_rank_migration(RankId rank, std::uint32_t from_node,
                                std::uint32_t to_node, CpuId to,
                                SimTime resume_at) {
  const auto r = static_cast<std::size_t>(rank.value());
  SMTBAL_CHECK(r < ranks_.size());
  SMTBAL_CHECK(from_node < nodes_.size() && to_node < nodes_.size());
  SMTBAL_CHECK(from_node != to_node);
  NodeRt& src = nodes_[from_node];
  NodeRt& dst = nodes_[to_node];
  src.dirty = true;
  dst.dirty = true;
  // Materialise the integration segment on the old seat (same discipline
  // as notify_placement_change); the engine already flipped the
  // placement maps, so the old context comes from our own cached index.
  if (state_[r] == RunState::kComputing && !preempted(r)) accrue(r);
  const std::uint32_t old_ctx = ctx_of_rank_[r];
  if (rank_on_linear_[old_ctx] == static_cast<int>(r)) {
    rank_on_linear_[old_ctx] = -1;
  }
  src.ranks.erase(std::find(src.ranks.begin(), src.ranks.end(), r));
  dst.ranks.insert(std::upper_bound(dst.ranks.begin(), dst.ranks.end(), r),
                   r);
  const std::uint32_t tpc = dst.ctx.chip->threads_per_core();
  lin_of_rank_[r] = to.linear(tpc);
  ctx_of_rank_[r] = dst.ctx_base + lin_of_rank_[r];
  SMTBAL_CHECK(rank_on_linear_[ctx_of_rank_[r]] < 0);
  rank_on_linear_[ctx_of_rank_[r]] = static_cast<int>(r);
  // Both nodes lost/gained a hardware context occupant: re-derive their
  // chip-load keys and predictions on the next refresh.
  if (state_[r] == RunState::kComputing) {
    invalidate_prediction(r);
    fresh_compute_.push_back(r);
  }
  // The resident state rides the interconnect; until it lands the rank
  // sits preempted on its new seat (same machinery as OS noise, so the
  // stall shows up as kPreempted in traces and stalls co-runners not at
  // all — the seat is idle, not contended).
  if (resume_at > now_ + kTimeEps) {
    const std::uint32_t ctx = ctx_of_rank_[r];
    preempt_until_[ctx] = std::max(preempt_until_[ctx], resume_at);
    queue_.push(preempt_until_[ctx], EventKind::kNoiseResume, ctx);
    if (state_[r] != RunState::kDone) {
      set_trace(r, trace::RankState::kPreempted);
    }
  }
  if (observed_) bus_.notify_rank_migration(rank, from_node, to_node, now_);
}

void Sim::invariant_audit(InvariantAudit& out) const {
  out.now = now_;
  out.queue_size = queue_.size();
  out.ranks_done = done_count_;
  out.collective_arrived = collectives_.arrived();
  out.ranks.resize(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankAudit& audit = out.ranks[r];
    audit.state = state_[r];
    audit.ready_at = ready_at_[r];
    audit.remaining = remaining_[r];
    audit.rate = rate_[r];
    audit.predicted = pred_valid_[r] != 0;
  }
  out.nodes.resize(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeRt& node = nodes_[n];
    NodeAudit& audit = out.nodes[n];
    audit.chip = node.ctx.chip;
    audit.ctx_base = node.ctx_base;
    const std::uint32_t contexts = node.ctx.chip->num_contexts();
    audit.priorities.resize(contexts);
    audit.engaged.resize(contexts);
    for (std::uint32_t ctx = 0; ctx < contexts; ++ctx) {
      const CpuId cpu = node.cpus[ctx];
      audit.priorities[ctx] = node.ctx.kernel->effective_priority(cpu);
      audit.engaged[ctx] = node.ctx.kernel->process_on(cpu).has_value();
    }
  }
}

void Sim::set_trace(std::size_t rank, trace::RankState state) {
  RankRt& rt = ranks_[rank];
  if (rt.shown == state) return;
  if (observed_ && now_ > rt.state_since &&
      rt.shown != trace::RankState::kDone) {
    bus_.notify_interval(RankId{static_cast<std::uint32_t>(rank)},
                         rt.state_since, now_, rt.shown);
  }
  rt.state_since = now_;
  rt.shown = state;
}

/// Publishes a synthesized (never-queued) event to the observers.
void Sim::emit_meta(EventKind kind, std::uint32_t subject) {
  if (!observed_) return;
  Event event;
  event.time = now_;
  event.kind = kind;
  event.subject = subject;
  bus_.notify_event(event);
}

void Sim::finish_rank(std::size_t rank) {
  touch(rank);  // the seat goes idle
  state_[rank] = RunState::kDone;
  set_trace(rank, trace::RankState::kDone);
  node_of(rank).ctx.kernel->exit_process(pids_[rank]);
  // The kernel just freed the seat; drop our occupancy mirror too, or a
  // later migrant landing on it would pass the kernel's free-seat check
  // and then trip the seating invariant here.
  if (rank_on_linear_[ctx_of_rank_[rank]] == static_cast<int>(rank)) {
    rank_on_linear_[ctx_of_rank_[rank]] = -1;
  }
  ++done_count_;
}

/// Materialises the rank's compute progress up to now_ (the segment
/// boundary of the piecewise-constant integration).
void Sim::accrue(std::size_t rank) {
  const SimTime dt = now_ - accrued_at_[rank];
  if (dt > 0.0) {
    remaining_[rank] -= rate_[rank] * dt;
    ranks_[rank].acc_compute += dt;
    ranks_[rank].acc_issued += rate_[rank] * dt;
  }
  accrued_at_[rank] = now_;
}

/// Starts a fresh integration segment at `rate` and predicts the
/// completion into the queue (no prediction for a starved rate, exactly
/// as the rescan loop had no next-event candidate for it).
void Sim::start_segment(std::size_t rank, double rate) {
  rate_[rank] = rate;
  accrued_at_[rank] = now_;
  ++compute_gen_[rank];
  pred_valid_[rank] = 0;
  if (rate > 0.0) {
    queue_.push(now_ + remaining_[rank] / rate, EventKind::kComputeDone,
                static_cast<std::uint32_t>(rank), compute_gen_[rank]);
    pred_valid_[rank] = 1;
  }
}

/// Drops a queued compute prediction (rate change, preemption) without
/// touching the heap: the generation bump makes the queued entry stale.
void Sim::invalidate_prediction(std::size_t rank) {
  pred_valid_[rank] = 0;
  ++compute_gen_[rank];
}

/// Re-derives rates on every node whose chip load changed, and
/// (re-)predicts completions — but only for the contexts whose sampled
/// rate actually changed or that started a fresh compute segment;
/// everyone else's queued prediction stays valid. Nodes are independent
/// sampling domains: an event on one node re-samples only that node.
///
/// Only dirty nodes (see NodeRt::dirty) re-derive their words at all; a
/// clean node's words are current by construction, which debug builds
/// verify by re-deriving them anyway. On a dirty node the load key is
/// derived incrementally: each context's (kernel, priority) word is
/// recomputed from ground truth and compared against the node's cached
/// word, and only the hash-chain suffix from the first changed word is
/// re-mixed (ChipLoad::key() prefix deltas). A dirty node whose words did
/// not change costs one compare per context — no hashing, no ChipLoad
/// construction, no sampler lookup.
void Sim::refresh_rates() {
  for (NodeRt& node : nodes_) {
    if (!node.dirty && node.preempt_expiry > now_ + kTimeEps) {
      SMTBAL_DCHECK(words_current(node));
      continue;
    }
    node.dirty = false;
    node.preempt_expiry = kSimInf;
    const auto contexts = static_cast<std::uint32_t>(node.words.size());
    std::uint32_t first_changed = contexts;  // sentinel: no word changed
    std::uint32_t used = 0;
    std::uint64_t engaged = 0;
    for (std::uint32_t ctx = 0; ctx < contexts; ++ctx) {
      const SimTime until = preempt_until_[node.ctx_base + ctx];
      if (until > now_ + kTimeEps) {
        node.preempt_expiry = std::min(node.preempt_expiry, until);
      }
      const std::uint64_t word = context_word(node, ctx);
      if (word != 0) {
        used = ctx + 1;
        ++engaged;
      }
      if (word != node.words[ctx]) {
        node.words[ctx] = word;
        first_changed = std::min(first_changed, ctx);
      }
    }
    if (node.have_rates && first_changed == contexts) continue;
    // Re-mix from the first changed word; from 0 when the engaged-prefix
    // length changed (it seeds the chain) or nothing is cached yet.
    const std::uint32_t from =
        used == node.used ? std::min(first_changed, used) : 0;
    std::uint64_t chain_state =
        from == 0 ? smt::ChipLoad::chain_seed(used, node.shape_seed)
                  : node.chain[from - 1];
    for (std::uint32_t i = from; i < used; ++i) {
      chain_state = smt::ChipLoad::chain_mix(chain_state, node.words[i]);
      node.chain[i] = chain_state;
    }
    node.used = used;
    const std::uint64_t key =
        smt::ChipLoad::chain_finish(chain_state, engaged, used);
    if (node.have_rates && key == node.load_key) continue;
    node.load_key = key;
    node.have_rates = true;
    // Copy, not reference: the sampler's map may rehash on later misses.
    if (const smt::SampleResult* hit = node.ctx.sampler->probe(key)) {
      node.rates = *hit;
    } else {
      node.rates = node.ctx.sampler->sample_measured(key, build_load(node));
    }
    for (const std::size_t r : node.ranks) {
      if (state_[r] != RunState::kComputing || preempted(r)) continue;
      const double rate = node.rates.instr_rate[lin_of_rank_[r]];
      if (pred_valid_[r] == 0) {
        start_segment(r, rate);
      } else if (rate != rate_[r]) {
        accrue(r);
        start_segment(r, rate);
      }
    }
  }
  // Fresh compute segments on nodes whose load key did not change (the
  // re-sampled nodes above already predicted them: pred_valid is set).
  for (const std::size_t r : fresh_compute_) {
    if (state_[r] != RunState::kComputing || pred_valid_[r] != 0 ||
        preempted(r)) {
      continue;
    }
    start_segment(r, node_of(r).rates.instr_rate[lin_of_rank_[r]]);
  }
  fresh_compute_.clear();
}

std::optional<smt::ContextLoad> Sim::context_load(const NodeRt& node,
                                                  std::uint32_t ctx) const {
  const CpuId cpu = node.cpus[ctx];
  if (!node.ctx.kernel->process_on(cpu).has_value()) return std::nullopt;
  const int rank = rank_on_linear_[node.ctx_base + ctx];
  SMTBAL_CHECK(rank >= 0);
  const auto r = static_cast<std::size_t>(rank);
  const bool computing = state_[r] == RunState::kComputing && !preempted(r);
  return smt::ContextLoad{computing ? kernel_of_rank_[r] : spin_kernel_,
                          node.ctx.kernel->effective_priority(cpu)};
}

std::uint64_t Sim::context_word(const NodeRt& node, std::uint32_t ctx) const {
  const std::optional<smt::ContextLoad> load = context_load(node, ctx);
  return load.has_value()
             ? smt::ChipLoad::context_word(load->kernel, load->priority)
             : 0;  // idle
}

bool Sim::words_current(const NodeRt& node) const {
  for (std::uint32_t ctx = 0; ctx < node.words.size(); ++ctx) {
    if (context_word(node, ctx) != node.words[ctx]) return false;
  }
  return true;
}

/// Current load of one node's chip: what every context runs right now.
/// Only the sampler-miss path needs the materialised ChipLoad; the
/// steady-state key derivation in refresh_rates() reads the same
/// context_load() per context.
smt::ChipLoad Sim::build_load(const NodeRt& node) const {
  smt::ChipLoad load;
  for (std::uint32_t ctx = 0; ctx < node.words.size(); ++ctx) {
    load.contexts[ctx] = context_load(node, ctx);
  }
  return load;
}

/// A message for `rank` arrived: if it is blocked in waitall, recompute
/// its readiness (and complete it if already due).
void Sim::notify_receiver(std::size_t rank) {
  if (state_[rank] != RunState::kAtWaitAll) return;
  SimTime max_arrival = 0.0;
  if (collectives_.match_all(static_cast<std::uint32_t>(rank),
                             ranks_[rank].posted, max_arrival)) {
    ready_at_[rank] = std::max(max_arrival, now_);
    if (ready_at_[rank] <= now_ + kTimeEps) complete_block(rank);
  }
}

/// The rank's blocking condition is satisfied: advance past the phase.
void Sim::complete_block(std::size_t rank) {
  RankRt& rt = ranks_[rank];
  switch (state_[rank]) {
    case RunState::kComputing:
      break;
    case RunState::kDelaying:
      break;
    case RunState::kAtBarrier:
      rt.acc_wait += now_ - rt.wait_since;
      ++epochs_[rank];
      epochs_dirty_ = true;
      break;
    case RunState::kAtWaitAll:
      rt.acc_wait += now_ - rt.wait_since;
      rt.posted.clear();
      ++epochs_[rank];
      epochs_dirty_ = true;
      break;
    case RunState::kDone:
      return;
  }
  ready_at_[rank] = kSimInf;
  ++rt.phase;
  advance_rank(rank);
}

// CollectiveClient: a due collective releases this rank.
void Sim::release_rank(std::size_t rank) { complete_block(rank); }

/// The rank arrives at a global collective; when the last participant
/// arrives, everyone is released after `release_cost` (the collective
/// sequences are identical across ranks — validated — so every arriver
/// passes the same cost). A costed release is scheduled as a single
/// kBarrierRelease event; a zero-cost release drains inline through the
/// collectives module's re-entrant-safe queue.
void Sim::arrive_collective(std::size_t rank, SimTime release_cost) {
  set_state(rank, RunState::kAtBarrier);
  ready_at_[rank] = kSimInf;
  ranks_[rank].wait_since = now_;
  set_trace(rank, trace::RankState::kSync);
  if (!collectives_.arrive()) return;
  const SimTime release = now_ + release_cost;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (state_[r] == RunState::kAtBarrier) {
      ready_at_[r] = release;
    }
  }
  if (release > now_ + kTimeEps) {
    queue_.push(release, EventKind::kBarrierRelease);
    return;
  }
  collectives_.release_due(now_, kTimeEps, state_, ready_at_, *this);
}

/// Executes phases from the rank's cursor until it blocks or finishes.
void Sim::advance_rank(std::size_t rank) {
  RankRt& rt = ranks_[rank];
  const auto& phases = app_.ranks[rank].phases;

  while (true) {
    if (rt.phase >= phases.size()) {
      finish_rank(rank);
      return;
    }
    const Phase& phase = phases[rt.phase];

    if (const auto* compute = std::get_if<ComputePhase>(&phase)) {
      if (compute->instructions <= 0.0) {
        ++rt.phase;
        continue;
      }
      if (state_[rank] != RunState::kComputing ||
          kernel_of_rank_[rank] != compute->kernel) {
        touch(rank);
      }
      state_[rank] = RunState::kComputing;
      remaining_[rank] = compute->instructions;
      kernel_of_rank_[rank] = compute->kernel;
      rt.compute_traced_as = compute->traced_as;
      invalidate_prediction(rank);
      fresh_compute_.push_back(rank);
      set_trace(rank, compute->traced_as);
      return;
    }
    if (std::holds_alternative<BarrierPhase>(phase)) {
      arrive_collective(rank, config_.barrier_latency);
      return;
    }
    if (const auto* reduce = std::get_if<AllreducePhase>(&phase)) {
      // Reduce + broadcast over a binomial tree: 2*ceil(log2 N)
      // point-to-point steps after the last rank arrives.
      const double n = static_cast<double>(ranks_.size());
      const double steps = 2.0 * std::ceil(std::log2(std::max(n, 2.0)));
      const SimTime step_cost = cost_.collective_step_cost(reduce->bytes);
      arrive_collective(rank, config_.barrier_latency + steps * step_cost);
      return;
    }
    if (const auto* send = std::get_if<SendPhase>(&phase)) {
      const SimTime arrival =
          cost_.arrival_time(now_, node_of_rank_[rank],
                             node_of_rank_[send->peer.value()], send->bytes);
      collectives_.post_send(static_cast<std::uint32_t>(rank),
                             send->peer.value(), send->tag, arrival);
      queue_.push(arrival, EventKind::kMsgArrival, send->peer.value(), 0,
                  MsgPayload{static_cast<std::uint32_t>(rank),
                             send->peer.value(), send->tag, send->bytes});
      ++rt.phase;
      continue;
    }
    if (const auto* recv = std::get_if<RecvPhase>(&phase)) {
      rt.posted.push_back(RecvReq{recv->peer.value(), recv->tag});
      ++rt.phase;
      continue;
    }
    if (std::holds_alternative<WaitAllPhase>(phase)) {
      SimTime max_arrival = 0.0;
      const bool all = collectives_.match_all(
          static_cast<std::uint32_t>(rank), rt.posted, max_arrival);
      if (all && max_arrival <= now_ + kTimeEps) {
        rt.posted.clear();
        ++epochs_[rank];
        epochs_dirty_ = true;
        ++rt.phase;
        continue;
      }
      set_state(rank, RunState::kAtWaitAll);
      // A fully matched set with in-flight messages completes at the
      // last arrival; its kMsgArrival event is already queued and wakes
      // the rank. Unmatched receives wait for a future send.
      ready_at_[rank] = all ? std::max(max_arrival, now_) : kSimInf;
      rt.wait_since = now_;
      set_trace(rank, trace::RankState::kSync);
      return;
    }
    if (const auto* delay = std::get_if<DelayPhase>(&phase)) {
      if (delay->duration <= 0.0) {
        ++rt.phase;
        continue;
      }
      set_state(rank, RunState::kDelaying);
      rt.delay_until = now_ + delay->duration;
      rt.delay_traced_as = delay->traced_as;
      queue_.push(rt.delay_until, EventKind::kDelayDone,
                  static_cast<std::uint32_t>(rank));
      set_trace(rank, delay->traced_as);
      return;
    }
    SMTBAL_CHECK_MSG(false, "unhandled phase variant");
  }
}

/// Schedules the node's next pending OS-noise event (one outstanding per
/// node at a time; each node's source is consumed in timeline order).
void Sim::schedule_next_noise(NodeRt& node) {
  if (node.noise.exhausted()) return;
  const os::NoiseEvent& event = node.noise.peek();
  queue_.push(event.start, EventKind::kNoisePreempt,
              node.ctx_base +
                  event.cpu.linear(node.ctx.chip->threads_per_core()));
}

void Sim::on_noise_preempt(std::uint32_t global_ctx) {
  NodeRt& node = nodes_[node_of_ctx_[global_ctx]];
  node.dirty = true;  // a vanilla kernel resets the priority; a window opens
  const os::NoiseEvent event = node.noise.next();
  schedule_next_noise(node);
  node.ctx.kernel->on_interrupt(event.cpu);
  const std::uint32_t lin =
      node.ctx_base + event.cpu.linear(node.ctx.chip->threads_per_core());
  if (lin >= preempt_until_.size()) return;
  const bool was_preempted = preempt_until_[lin] > now_ + kTimeEps;
  preempt_until_[lin] = std::max(preempt_until_[lin], event.end());
  queue_.push(preempt_until_[lin], EventKind::kNoiseResume, lin);
  const bool is_preempted = preempt_until_[lin] > now_ + kTimeEps;
  const int rank = rank_on_linear_[lin];
  if (rank < 0) return;
  const auto r = static_cast<std::size_t>(rank);
  if (state_[r] == RunState::kDone) return;
  if (!was_preempted && is_preempted && state_[r] == RunState::kComputing) {
    // Suspend the integration segment for the preemption window.
    accrue(r);
    invalidate_prediction(r);
  }
  set_trace(r, trace::RankState::kPreempted);
}

void Sim::on_noise_resume(std::uint32_t global_ctx) {
  nodes_[node_of_ctx_[global_ctx]].dirty = true;
  preempt_until_[global_ctx] = 0.0;
  const int rank = rank_on_linear_[global_ctx];
  if (rank < 0) return;
  const auto r = static_cast<std::size_t>(rank);
  if (state_[r] != RunState::kDone) {
    set_trace(r, base_trace(state_[r], ranks_[r]));
  }
  if (state_[r] == RunState::kComputing && pred_valid_[r] == 0) {
    // Resume the suspended segment; refresh_rates() predicts anew.
    fresh_compute_.push_back(r);
  }
}

/// A queued event that no longer matches the simulation state (lazy
/// invalidation): superseded compute predictions and noise resumes of
/// preemption windows that were extended or already closed.
bool Sim::is_stale(const Event& event) const {
  switch (event.kind) {
    case EventKind::kComputeDone:
      return event.generation != compute_gen_[event.subject] ||
             state_[event.subject] != RunState::kComputing;
    case EventKind::kNoiseResume:
      return preempt_until_[event.subject] == 0.0 ||
             preempt_until_[event.subject] > event.time + kTimeEps;
    default:
      return false;
  }
}

void Sim::dispatch(const Event& event) {
  switch (event.kind) {
    case EventKind::kComputeDone: {
      const std::size_t rank = event.subject;
      accrue(rank);
      invalidate_prediction(rank);
      complete_block(rank);
      break;
    }
    case EventKind::kDelayDone: {
      const std::size_t rank = event.subject;
      if (state_[rank] == RunState::kDelaying &&
          ranks_[rank].delay_until <= now_ + kTimeEps) {
        complete_block(rank);
      }
      break;
    }
    case EventKind::kMsgArrival:
      notify_receiver(event.msg.dst);
      break;
    case EventKind::kBarrierRelease:
      collectives_.release_due(now_, kTimeEps, state_, ready_at_, *this);
      break;
    case EventKind::kNoisePreempt:
      on_noise_preempt(event.subject);
      break;
    case EventKind::kNoiseResume:
      on_noise_resume(event.subject);
      break;
    case EventKind::kPriorityChange:
    case EventKind::kEpochEnd:
      break;  // meta kinds are never queued
  }
}

/// Reports a crossed epoch boundary (if any) to the observers; returns
/// true when a report was emitted (a policy may have reacted).
bool Sim::check_epochs() {
  epochs_dirty_ = false;
  // Finished ranks hold their final epoch count, so the global epoch
  // keeps advancing (and the last epoch gets reported) as ranks exit.
  int min_epochs = std::numeric_limits<int>::max();
  for (const int epochs : epochs_) {
    min_epochs = std::min(min_epochs, epochs);
  }
  if (min_epochs == std::numeric_limits<int>::max() ||
      min_epochs <= reported_epochs_) {
    return false;
  }
  reported_epochs_ = min_epochs;

  EpochReport report;
  report.epoch = reported_epochs_;
  report.now = now_;
  report.ranks.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankRt& rt = ranks_[r];
    // Materialise the lazy accumulators up to the snapshot point.
    if (state_[r] == RunState::kComputing && !preempted(r)) {
      accrue(r);
    } else if (state_[r] == RunState::kAtBarrier ||
               state_[r] == RunState::kAtWaitAll) {
      rt.acc_wait += now_ - rt.wait_since;
      rt.wait_since = now_;
    }
    RankEpochStats stats;
    stats.compute = rt.acc_compute;
    stats.wait = rt.acc_wait;
    stats.issued = rt.acc_issued;
    // Observation snapshot: the rank's sampled IPC, its share of its
    // core's throughput, its effective priority and its current seat.
    const NodeRt& node = node_of(r);
    const std::uint32_t lin = lin_of_rank_[r];
    if (node.have_rates) {
      stats.ipc = node.rates.ipc[lin];
      const std::uint32_t tpc = node.ctx.chip->threads_per_core();
      const std::uint32_t core_base = (lin / tpc) * tpc;
      double core_rate = 0.0;
      for (std::uint32_t s = 0; s < tpc; ++s) {
        core_rate += node.rates.instr_rate[core_base + s];
      }
      if (core_rate > 0.0) {
        stats.decode_share = node.rates.instr_rate[lin] / core_rate;
      }
    }
    stats.priority = smt::level(
        node.ctx.kernel->effective_priority(placement_.cpu_of_rank[r]));
    stats.cpu = placement_.cpu_of_rank[r];
    report.ranks.push_back(stats);
    rt.acc_compute = 0.0;
    rt.acc_wait = 0.0;
    rt.acc_issued = 0.0;
  }
  emit_meta(EventKind::kEpochEnd, static_cast<std::uint32_t>(report.epoch));
  if (observed_) bus_.notify_epoch(report);
  return true;
}

void Sim::deadlock() const {
  std::ostringstream os;
  os << "MPI application deadlocked at t=" << now_ << "s; rank states:";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    os << " P" << (r + 1) << "=" << to_string(state_[r]) << "(phase "
       << ranks_[r].phase << ")";
  }
  throw SimulationError(os.str());
}

RunStats Sim::run() {
  running_ = true;
  // Latched once: attach order is fixed before run() (Engine enforces it),
  // so an unobserved run skips every notification dispatch below.
  observed_ = !bus_.empty();
  if (observed_) bus_.notify_bind(this);
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (state_[r] != RunState::kDone) advance_rank(r);
  }
  refresh_rates();
  if (epochs_dirty_ && check_epochs()) refresh_rates();
  for (NodeRt& node : nodes_) schedule_next_noise(node);

  while (!all_done()) {
    if (queue_.empty()) deadlock();
    SMTBAL_CHECK_MSG(++pops_ <= config_.max_events,
                     "engine exceeded max_events — runaway simulation?");
    SMTBAL_CHECK_MSG(now_ <= config_.max_sim_time,
                     "engine exceeded max_sim_time");
    const Event event = queue_.pop();
    if (is_stale(event)) continue;
    now_ = std::max(now_, event.time);
    ++events_;
    if (observed_) bus_.notify_event(event);
    dispatch(event);
    refresh_rates();
    if (epochs_dirty_ && check_epochs()) refresh_rates();
  }

  // Flush trailing trace intervals and close the trace.
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    set_trace(r, trace::RankState::kDone);
  }
  if (observed_) bus_.notify_finish(now_);
  return RunStats{now_, events_};
}

}  // namespace detail
}  // namespace smtbal::mpisim
