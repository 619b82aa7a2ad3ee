#include "mpisim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "mpisim/sim.hpp"

namespace smtbal::mpisim {

void EngineConfig::validate() const {
  chip.validate();
  network.validate();
  if (chip.num_contexts() > smt::kMaxContexts) {
    std::ostringstream os;
    os << "EngineConfig.chip has " << chip.num_contexts()
       << " contexts but the sampler supports at most " << smt::kMaxContexts
       << " (smt::kMaxContexts); split the machine into cluster nodes "
          "(cluster::ClusterEngine) or shrink the chip";
    throw InvalidArgument(os.str());
  }
  SMTBAL_REQUIRE(std::isfinite(max_sim_time) && max_sim_time > 0.0,
                 "EngineConfig.max_sim_time must be positive and finite");
  SMTBAL_REQUIRE(max_events > 0, "EngineConfig.max_events must be positive");
  SMTBAL_REQUIRE(std::isfinite(barrier_latency) && barrier_latency >= 0.0,
                 "EngineConfig.barrier_latency must be non-negative and "
                 "finite");
  SMTBAL_REQUIRE(std::isfinite(noise_horizon) && noise_horizon >= 0.0,
                 "EngineConfig.noise_horizon must be non-negative and finite");
  try {
    (void)isa::KernelRegistry::instance().by_name(spin_kernel);
  } catch (const std::exception&) {
    throw InvalidArgument("EngineConfig.spin_kernel '" + spin_kernel +
                          "' is not a registered kernel");
  }
}

namespace {

std::shared_ptr<smt::ThroughputSampler> make_own_sampler(
    const EngineConfig& config) {
  // Validate before the sampler touches the chip config so a broken
  // configuration fails with a structured error from either constructor.
  config.validate();
  return std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
}

/// Validates a one-node configuration and placement: every rank on node 0.
MultiNodeEngine::Setup one_node(
    Application app, Placement placement, EngineConfig config,
    std::shared_ptr<smt::ThroughputSampler> sampler) {
  config.validate();
  SMTBAL_REQUIRE(sampler != nullptr, "sampler must not be null");
  SMTBAL_REQUIRE(placement.cpu_of_rank.size() == app.size(),
                 "placement size must match rank count");
  for (const CpuId& cpu : placement.cpu_of_rank) {
    SMTBAL_REQUIRE(cpu.linear(config.chip.threads_per_core()) <
                       config.chip.num_contexts(),
                   "placement assigns a rank to a CPU beyond "
                   "chip.num_contexts()");
    // linear() folds an out-of-range slot onto another core's context;
    // reject the alias instead of silently double-booking that seat.
    SMTBAL_REQUIRE(cpu.slot.value() < config.chip.threads_per_core(),
                   "placement assigns a rank to an SMT slot beyond "
                   "chip.threads_per_core()");
  }
  app.validate();
  MultiNodeEngine::Setup setup;
  setup.node_of_rank.assign(app.size(), 0);
  setup.app = std::move(app);
  setup.placement = std::move(placement);
  setup.chips = {config.chip};
  setup.config = std::move(config);
  setup.sampler_of_node = {sampler.get()};
  setup.samplers = {std::move(sampler)};
  return setup;
}

}  // namespace

MultiNodeEngine::MultiNodeEngine(Setup setup)
    : app_(std::move(setup.app)),
      placement_(std::move(setup.placement)),
      node_of_rank_(std::move(setup.node_of_rank)),
      node_config_(std::move(setup.config)),
      chips_(std::move(setup.chips)),
      samplers_(std::move(setup.samplers)),
      sampler_of_node_(std::move(setup.sampler_of_node)),
      migration_of_node_(chips_.size()) {
  kernels_.reserve(chips_.size());
  for (const smt::ChipConfig& chip : chips_) {
    kernels_.push_back(
        std::make_unique<os::KernelModel>(node_config_.kernel_flavor, chip));
  }
}

void MultiNodeEngine::add_observer(SimObserver* observer) {
  SMTBAL_REQUIRE(observer != nullptr, "observer must not be null");
  SMTBAL_REQUIRE(!ran_, "add_observer must be called before run()");
  observers_.push_back(observer);
}

void MultiNodeEngine::check_rank(RankId rank, const char* who) const {
  if (rank.value() >= app_.size()) {
    throw InvalidArgument(std::string(who) + ": rank out of range — got rank " +
                          std::to_string(rank.value()) + ", have " +
                          std::to_string(app_.size()) + " rank(s)");
  }
}

void MultiNodeEngine::check_node(std::uint32_t node, const char* who) const {
  if (node >= num_nodes()) {
    throw InvalidArgument(std::string(who) + ": node " + std::to_string(node) +
                          " out of range [0, " + std::to_string(num_nodes()) +
                          ")");
  }
}

void MultiNodeEngine::check_seat(std::uint32_t node, CpuId to,
                                 const char* who) const {
  const smt::ChipConfig& chip = chips_[node];
  if (to.linear(chip.threads_per_core()) >= chip.num_contexts() ||
      to.slot.value() >= chip.threads_per_core()) {
    throw InvalidArgument(
        std::string(who) + ": target (core " + std::to_string(to.core.value()) +
        ", slot " + std::to_string(to.slot.value()) + ") is beyond node " +
        std::to_string(node) + "'s " + std::to_string(chip.num_contexts()) +
        " contexts (" + std::to_string(chip.threads_per_core()) +
        "-way SMT)");
  }
}

void MultiNodeEngine::require_spawned(const char* who) const {
  if (pid_of_rank_.empty()) {
    throw InvalidArgument(std::string(who) +
                          " is only valid from policy hooks (processes not "
                          "spawned yet)");
  }
}

int MultiNodeEngine::priority_sum(std::uint32_t node) const {
  const os::KernelModel& kernel = *kernels_[node];
  const smt::ChipConfig& chip = chips_[node];
  int sum = 0;
  for (std::uint32_t ctx = 0; ctx < chip.num_contexts(); ++ctx) {
    const CpuId cpu = chip.cpu(ctx);
    if (!kernel.process_on(cpu).has_value()) continue;
    sum += smt::level(kernel.effective_priority(cpu));
  }
  return sum;
}

std::uint32_t MultiNodeEngine::node_of(RankId rank) const {
  check_rank(rank, "node_of");
  return node_of_rank_[rank.value()];
}

std::uint32_t MultiNodeEngine::threads_per_core_of(std::uint32_t node) const {
  check_node(node, "threads_per_core_of");
  return chips_[node].threads_per_core();
}

std::uint32_t MultiNodeEngine::num_cores_of(std::uint32_t node) const {
  check_node(node, "num_cores_of");
  return chips_[node].num_cores;
}

void MultiNodeEngine::set_rank_priority(RankId rank, int priority) {
  require_spawned("set_rank_priority");
  check_rank(rank, "set_rank_priority");
  const std::uint32_t node = node_of_rank_[rank.value()];
  os::KernelModel& kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  // A rank that already exited has no process to re-prioritise (its
  // /proc/<pid>/hmt_priority file is gone); ignore, as a userspace
  // balancer racing process exit would experience.
  const CpuId cpu = placement_.cpu_of_rank[rank.value()];
  if (kernel.process_on(cpu) != std::optional<Pid>(pid)) return;
  const int before = smt::level(kernel.effective_priority(cpu));
  if (!budgets_.empty()) {
    const int sum = priority_sum(node);
    if (sum - before + priority > budgets_[node]) {
      throw InvalidArgument(
          "set_rank_priority: raising rank " + std::to_string(rank.value()) +
          " from " + std::to_string(before) + " to " +
          std::to_string(priority) + " would push node " +
          std::to_string(node) + "'s priority sum to " +
          std::to_string(sum - before + priority) + ", over its budget of " +
          std::to_string(budgets_[node]));
    }
  }
  if (kernel.flavor() == os::KernelFlavor::kPatched) {
    kernel.write_hmt_priority(pid, priority);
  } else {
    // Vanilla kernel: userspace can only use the or-nop interface, which
    // is limited to priorities 2..4 (paper Table I).
    kernel.set_priority_ornop(pid, smt::priority_from_int(priority),
                              smt::PrivilegeLevel::kUser);
  }
  const int after = smt::level(kernel.effective_priority(cpu));
  // The Sim exists for the whole window in which policy hooks may fire
  // (run() builds it before on_start), so the notification always flows
  // through it and carries the real simulation time.
  if (after != before && sim_ != nullptr) {
    sim_->notify_priority_change(rank, before, after);
  }
}

int MultiNodeEngine::rank_priority(RankId rank) const {
  check_rank(rank, "rank_priority");
  const os::KernelModel& kernel = *kernels_[node_of_rank_[rank.value()]];
  return smt::level(
      kernel.effective_priority(placement_.cpu_of_rank[rank.value()]));
}

void MultiNodeEngine::move_rank(RankId rank, CpuId to) {
  require_spawned("move_rank");
  check_rank(rank, "move_rank");
  const std::uint32_t node = node_of_rank_[rank.value()];
  check_seat(node, to, "move_rank");
  os::KernelModel& kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.cpu_of_rank[rank.value()];
  // An exited rank has no process to migrate; ignore, like
  // set_rank_priority racing process exit.
  if (kernel.process_on(from) != std::optional<Pid>(pid)) return;
  if (from == to) return;
  kernel.migrate(pid, to);  // throws (value-bearing) on an occupied seat
  placement_.cpu_of_rank[rank.value()] = to;
  if (sim_ != nullptr) sim_->notify_placement_change(rank, from, to);
}

void MultiNodeEngine::swap_ranks(RankId a, RankId b) {
  require_spawned("swap_ranks");
  check_rank(a, "swap_ranks");
  check_rank(b, "swap_ranks");
  if (a == b) return;
  const std::uint32_t node_a = node_of_rank_[a.value()];
  const std::uint32_t node_b = node_of_rank_[b.value()];
  if (node_a != node_b) {
    throw InvalidArgument(
        "swap_ranks: rank " + std::to_string(a.value()) + " (node " +
        std::to_string(node_a) + ") and rank " + std::to_string(b.value()) +
        " (node " + std::to_string(node_b) +
        ") live on different nodes — placement moves are within-node");
  }
  os::KernelModel& kernel = *kernels_[node_a];
  const CpuId cpu_a = placement_.cpu_of_rank[a.value()];
  const CpuId cpu_b = placement_.cpu_of_rank[b.value()];
  // A pair with an exited member is ignored, like set_rank_priority
  // racing process exit.
  if (kernel.process_on(cpu_a) != std::optional<Pid>(pid_of_rank_[a.value()]) ||
      kernel.process_on(cpu_b) != std::optional<Pid>(pid_of_rank_[b.value()])) {
    return;
  }
  kernel.swap_processes(pid_of_rank_[a.value()], pid_of_rank_[b.value()]);
  placement_.cpu_of_rank[a.value()] = cpu_b;
  placement_.cpu_of_rank[b.value()] = cpu_a;
  if (sim_ != nullptr) {
    sim_->notify_placement_change(a, cpu_a, cpu_b);
    sim_->notify_placement_change(b, cpu_b, cpu_a);
  }
}

void MultiNodeEngine::migrate_rank(RankId rank, std::uint32_t node, CpuId to) {
  require_spawned("migrate_rank");
  check_rank(rank, "migrate_rank");
  check_node(node, "migrate_rank");
  const std::uint32_t from_node = node_of_rank_[rank.value()];
  if (node == from_node) {
    move_rank(rank, to);
    return;
  }
  check_seat(node, to, "migrate_rank");
  os::KernelModel& from_kernel = *kernels_[from_node];
  os::KernelModel& to_kernel = *kernels_[node];
  const Pid pid = pid_of_rank_[rank.value()];
  const CpuId from = placement_.cpu_of_rank[rank.value()];
  // An exited rank has no process to migrate; ignore, like
  // set_rank_priority racing process exit.
  if (from_kernel.process_on(from) != std::optional<Pid>(pid)) return;
  if (to_kernel.process_on(to).has_value()) {
    throw InvalidArgument(
        "migrate_rank: target seat (node " + std::to_string(node) + ", core " +
        std::to_string(to.core.value()) + ", slot " +
        std::to_string(to.slot.value()) + ") already hosts a process");
  }
  const int level = smt::level(from_kernel.effective_priority(from));
  if (!budgets_.empty() && priority_sum(node) + level > budgets_[node]) {
    throw InvalidArgument(
        "migrate_rank: moving rank " + std::to_string(rank.value()) +
        " (priority " + std::to_string(level) + ") onto node " +
        std::to_string(node) + " would push its priority sum to " +
        std::to_string(priority_sum(node) + level) + ", over its budget of " +
        std::to_string(budgets_[node]));
  }
  // State handoff between the node kernels: the source tears the process
  // down, the target spawns it on the new seat, and the priority level
  // travels by rewrite (on a vanilla kernel userspace can only restore
  // levels in the or-nop band 2..4; others keep the spawn default).
  from_kernel.exit_process(pid);
  const Pid fresh = to_kernel.spawn(to);
  pid_of_rank_[rank.value()] = fresh;
  if (to_kernel.flavor() == os::KernelFlavor::kPatched) {
    to_kernel.write_hmt_priority(fresh, level);
  } else if (level >= 2 && level <= 4) {
    to_kernel.set_priority_ornop(fresh, smt::priority_from_int(level),
                                 smt::PrivilegeLevel::kUser);
  }
  node_of_rank_[rank.value()] = node;
  placement_.cpu_of_rank[rank.value()] = to;
  const SimTime now = sim_ != nullptr ? sim_->now() : 0.0;
  const SimTime landed = cost_model().migration_arrival(now, from_node, node);
  MigrationCounters& counters = migration_of_node_[from_node];
  ++counters.migrations;
  counters.stall += landed - now;
  if (sim_ != nullptr) {
    sim_->notify_rank_migration(rank, from_node, node, to, landed);
  }
}

void MultiNodeEngine::install_budgets(int per_node_budget) {
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    const int sum = priority_sum(n);
    if (per_node_budget < sum) {
      throw InvalidArgument(
          "install_budgets: node " + std::to_string(n) +
          "'s current priority sum is " + std::to_string(sum) +
          ", over the requested budget of " + std::to_string(per_node_budget));
    }
  }
  budgets_.assign(num_nodes(), per_node_budget);
}

void MultiNodeEngine::transfer_budget(std::uint32_t from, std::uint32_t to,
                                      int amount) {
  SMTBAL_REQUIRE(!budgets_.empty(),
                 "transfer_budget requires install_budgets() first");
  check_node(std::max(from, to), "transfer_budget");
  SMTBAL_REQUIRE(amount >= 0, "transfer_budget: amount must be >= 0");
  if (from == to || amount == 0) return;
  const int floor = priority_sum(from);
  if (budgets_[from] - amount < floor) {
    throw InvalidArgument(
        "transfer_budget: node " + std::to_string(from) + "'s budget of " +
        std::to_string(budgets_[from]) + " cannot give up " +
        std::to_string(amount) + " — its current priority sum is " +
        std::to_string(floor));
  }
  budgets_[from] -= amount;
  budgets_[to] += amount;
}

int MultiNodeEngine::node_budget(std::uint32_t node) const {
  check_node(node, "node_budget");
  return budgets_.empty() ? kUnlimitedBudget : budgets_[node];
}

RunResult MultiNodeEngine::run_nodes(SimObserver* extra) {
  SMTBAL_REQUIRE(!ran_, "run() may be called only once per engine");
  ran_ = true;
  std::vector<smt::SamplerStats> sampler_start;
  for (const auto& sampler : samplers_) {
    sampler_start.push_back(sampler->stats());
  }

  ObserverBus bus;
  for (SimObserver* observer : observers_) bus.attach(observer);
  TraceObserver trace_observer(app_.size());
  MetricsObserver metrics_observer(app_.size());
  PolicyObserver policy_observer(policy_, *this);
  bus.attach(&trace_observer);
  bus.attach(&metrics_observer);
  if (extra != nullptr) bus.attach(extra);
  if (policy_ != nullptr) bus.attach(&policy_observer);

  // Reset the live-run notification target however run() exits.
  struct ActiveRun {
    MultiNodeEngine& engine;
    ~ActiveRun() { engine.sim_ = nullptr; }
  } active{*this};

  for (std::size_t r = 0; r < app_.size(); ++r) {
    pid_of_rank_.push_back(
        kernels_[node_of_rank_[r]]->spawn(placement_.cpu_of_rank[r]));
  }

  // The Sim is built before the policy's on_start fires so pre-run
  // actuations (priorities, seat moves, migrations) flow through the same
  // notify paths as mid-run ones and observers see consistent (t = 0)
  // timestamps.
  std::vector<detail::NodeCtx> nodes;
  nodes.reserve(chips_.size());
  for (std::size_t n = 0; n < chips_.size(); ++n) {
    nodes.push_back({&chips_[n], sampler_of_node_[n], kernels_[n].get()});
  }
  detail::Sim sim(app_, placement_, node_of_rank_, node_config_,
                  std::move(nodes), cost_model(), pid_of_rank_, bus);
  sim_ = &sim;

  bus.notify_start(app_.size());
  if (policy_ != nullptr) policy_->on_start(*this);
  const detail::RunStats stats = sim.run();

  RunResult result;
  result.trace = trace_observer.take();
  result.exec_time = stats.end_time;
  result.imbalance = result.trace.imbalance();
  result.events = stats.events;
  for (const auto& kernel : kernels_) {
    result.priority_resets += kernel->priority_resets();
  }
  // The samplers outlive this run (a batch worker reuses one across its
  // runs), so report this run's share: end counters minus start counters.
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    result.sampler_stats += samplers_[i]->stats().since(sampler_start[i]);
  }
  result.metrics = metrics_observer.take();
  return result;
}

Engine::Engine(Application app, Placement placement, EngineConfig config)
    : Engine(std::move(app), std::move(placement), config,
             make_own_sampler(config)) {}

Engine::Engine(Application app, Placement placement, EngineConfig config,
               std::shared_ptr<smt::ThroughputSampler> sampler)
    : MultiNodeEngine(one_node(std::move(app), std::move(placement),
                               std::move(config), std::move(sampler))),
      cost_(node_config().network) {}

}  // namespace smtbal::mpisim
