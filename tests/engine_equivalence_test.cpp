// Flat Engine vs single-node ClusterEngine on the EngineControl surface:
// the same actuation script, edge cases included, must either throw on
// both engines or succeed on both with the same resulting priorities,
// seats, nodes and budgets. Also pins NodeView, the node-local view the
// per-node inner controllers drive, to its hosting node's shape.
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/engine.hpp"
#include "cluster/placement.hpp"
#include "common/error.hpp"
#include "isa/kernel.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/hooks.hpp"

namespace smtbal {
namespace {

isa::KernelId kid() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
}

mpisim::EngineConfig fast_config() {
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  return config;
}

/// Three ranks on one default 2-core chip. Rank 1 exits right after its
/// first wait_all, so by the first epoch boundary (ranks 0 and 2 done
/// with their exchange) it is gone while the others keep computing.
mpisim::Application three_rank_app() {
  mpisim::Application app;
  app.name = "equivalence";
  app.ranks.resize(3);
  app.ranks[0]
      .send(RankId{1}, 64)
      .compute(kid(), 2e8)
      .send(RankId{2}, 64)
      .recv(RankId{2}, 64)
      .wait_all()
      .compute(kid(), 2e8);
  app.ranks[1].recv(RankId{0}, 64).wait_all();
  app.ranks[2]
      .compute(kid(), 2e8)
      .send(RankId{0}, 64)
      .recv(RankId{0}, 64)
      .wait_all()
      .compute(kid(), 2e8);
  return app;
}

/// Ranks 0, 1, 2 on linear seats 0, 1, 2; seat 3 (core 1, slot 1) free.
const mpisim::Placement kSeats = mpisim::Placement::from_linear({0, 1, 2});

CpuId seat(std::uint32_t core, std::uint32_t slot) {
  return CpuId{CoreId{core}, ThreadSlot{slot}};
}

struct Step {
  std::string name;
  bool throws;  ///< the expected outcome, on both engines
  std::function<void(mpisim::EngineControl&)> call;
};

/// What one step left behind: whether it threw, then every rank's
/// priority, seat and node, and node 0's budget.
std::string outcome(mpisim::EngineControl& control, bool threw) {
  std::string out = threw ? "threw" : "ok";
  for (std::uint32_t r = 0; r < control.num_ranks(); ++r) {
    const CpuId cpu = control.placement().cpu_of_rank[r];
    out += " r" + std::to_string(r) + "=p" +
           std::to_string(control.rank_priority(RankId{r})) + "@n" +
           std::to_string(control.node_of(RankId{r})) + "c" +
           std::to_string(cpu.core.value()) + "s" +
           std::to_string(cpu.slot.value());
  }
  return out + " budget=" + std::to_string(control.node_budget(0));
}

/// Runs the script on the first epoch, recording one outcome per step.
class ScriptPolicy final : public mpisim::BalancePolicy {
 public:
  explicit ScriptPolicy(const std::vector<Step>& steps) : steps_(steps) {}
  [[nodiscard]] std::string_view name() const override { return "script"; }
  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override {
    (void)report;
    if (!outcomes.empty()) return;
    for (const Step& step : steps_) {
      bool threw = false;
      try {
        step.call(control);
      } catch (const InvalidArgument&) {
        threw = true;
      }
      outcomes.push_back(outcome(control, threw));
    }
  }

  std::vector<std::string> outcomes;

 private:
  const std::vector<Step>& steps_;
};

std::vector<Step> actuation_script() {
  using Control = mpisim::EngineControl;
  std::vector<Step> steps;
  const auto add = [&steps](std::string name, bool throws,
                            std::function<void(Control&)> call) {
    steps.push_back({std::move(name), throws, std::move(call)});
  };
  const auto sum0 = [](Control& c) { return mpisim::node_priority_sum(c, 0); };

  add("transfer_budget before install_budgets", true,
      [](Control& c) { c.transfer_budget(0, 0, 1); });
  add("num_cores_of(1)", true, [](Control& c) { (void)c.num_cores_of(1); });
  add("threads_per_core_of(1)", true,
      [](Control& c) { (void)c.threads_per_core_of(1); });
  add("node_budget(1)", true, [](Control& c) { (void)c.node_budget(1); });
  add("node_of out of range", true,
      [](Control& c) { (void)c.node_of(RankId{3}); });
  add("shape of node 0", false, [](Control& c) {
    if (c.num_nodes() != 1 || c.num_cores_of(0) != 2 ||
        c.threads_per_core_of(0) != 2) {
      throw InvalidArgument("unexpected node shape");
    }
  });
  add("install_budgets below the current sum", true,
      [sum0](Control& c) { c.install_budgets(sum0(c) - 1); });
  add("install_budgets with one level of headroom", false,
      [sum0](Control& c) { c.install_budgets(sum0(c) + 1); });
  add("over-budget priority raise", true, [](Control& c) {
    c.set_rank_priority(RankId{0}, c.rank_priority(RankId{0}) + 2);
  });
  add("priority raise within the budget", false, [](Control& c) {
    c.set_rank_priority(RankId{0}, c.rank_priority(RankId{0}) + 1);
  });
  add("transfer_budget from == to", false,
      [](Control& c) { c.transfer_budget(0, 0, 1); });
  add("transfer_budget to node 1", true,
      [](Control& c) { c.transfer_budget(0, 1, 1); });
  add("transfer_budget negative amount", true,
      [](Control& c) { c.transfer_budget(0, 0, -1); });
  add("move to an occupied seat", true,
      [](Control& c) { c.move_rank(RankId{0}, seat(1, 0)); });
  add("move beyond the chip", true,
      [](Control& c) { c.move_rank(RankId{0}, seat(2, 0)); });
  add("move to a free seat", false,
      [](Control& c) { c.move_rank(RankId{0}, seat(1, 1)); });
  add("move an exited rank", false,
      [](Control& c) { c.move_rank(RankId{1}, seat(0, 0)); });
  add("swap with an exited rank", false,
      [](Control& c) { c.swap_ranks(RankId{1}, RankId{2}); });
  add("priority on an exited rank", false,
      [](Control& c) { c.set_rank_priority(RankId{1}, 6); });
  add("migrate_rank to node 0", false,
      [](Control& c) { c.migrate_rank(RankId{0}, 0, seat(0, 0)); });
  add("migrate_rank to node 1", true,
      [](Control& c) { c.migrate_rank(RankId{0}, 1, seat(0, 0)); });
  add("migrate_rank of an out-of-range rank", true,
      [](Control& c) { c.migrate_rank(RankId{3}, 0, seat(0, 1)); });
  add("swap two live ranks", false,
      [](Control& c) { c.swap_ranks(RankId{0}, RankId{2}); });
  add("swap with an out-of-range rank", true,
      [](Control& c) { c.swap_ranks(RankId{0}, RankId{5}); });
  return steps;
}

TEST(EngineEquivalence, ActuationScriptMatchesOnFlatAndSingleNodeCluster) {
  const std::vector<Step> steps = actuation_script();

  ScriptPolicy flat_script(steps);
  mpisim::Engine flat(three_rank_app(), kSeats, fast_config());
  flat.set_policy(&flat_script);
  const mpisim::RunResult flat_result = flat.run();

  cluster::ClusterConfig config;
  config.num_nodes = 1;
  config.node = fast_config();
  ScriptPolicy cluster_script(steps);
  cluster::ClusterEngine one_node(
      three_rank_app(),
      cluster::ClusterPlacement::explicit_map({0, 0, 0}, kSeats), config);
  one_node.set_policy(&cluster_script);
  const cluster::ClusterRunResult cluster_result = one_node.run();

  ASSERT_EQ(flat_script.outcomes.size(), steps.size());
  ASSERT_EQ(cluster_script.outcomes.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(flat_script.outcomes[i], cluster_script.outcomes[i])
        << "step " << i << ": " << steps[i].name;
    EXPECT_EQ(flat_script.outcomes[i].rfind("threw", 0) == 0, steps[i].throws)
        << "step " << i << ": " << steps[i].name << " -> "
        << flat_script.outcomes[i];
  }
  // The same actuations land at the same simulated instant on both.
  EXPECT_EQ(flat_result.exec_time, cluster_result.flat.exec_time);
  EXPECT_EQ(flat_result.events, cluster_result.flat.events);
}

TEST(EngineEquivalence, ActuationBeforeRunThrowsOnBoth) {
  cluster::ClusterConfig config;
  config.num_nodes = 1;
  config.node = fast_config();
  mpisim::Engine flat(three_rank_app(), kSeats, fast_config());
  cluster::ClusterEngine one_node(
      three_rank_app(),
      cluster::ClusterPlacement::explicit_map({0, 0, 0}, kSeats), config);
  for (mpisim::EngineControl* control :
       {static_cast<mpisim::EngineControl*>(&flat),
        static_cast<mpisim::EngineControl*>(&one_node)}) {
    EXPECT_THROW(control->set_rank_priority(RankId{0}, 5), InvalidArgument);
    EXPECT_THROW(control->move_rank(RankId{0}, seat(1, 1)), InvalidArgument);
    EXPECT_THROW(control->swap_ranks(RankId{0}, RankId{1}), InvalidArgument);
    EXPECT_THROW(control->migrate_rank(RankId{0}, 0, seat(1, 1)),
                 InvalidArgument);
    EXPECT_EQ(control->node_budget(0), mpisim::kUnlimitedBudget);
  }
}

TEST(NodeView, AnswersForItsHostingNode) {
  // Node 1 is a 3-core SMT4 chip: a view of it reports that node's shape
  // as its own node 0, maps local ids onto node 1's global ranks, and
  // forwards priority writes to them.
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.node = fast_config();
  config.node_shapes = {{}, {.num_cores = 3, .threads_per_core = 4}};
  mpisim::Application app = three_rank_app();
  const auto placement = cluster::ClusterPlacement::explicit_map(
      {0, 0, 1}, mpisim::Placement::from_linear({0, 1, 2}, 2));

  bool probed = false;
  class Probe final : public mpisim::BalancePolicy {
   public:
    explicit Probe(bool& probed) : probed_(probed) {}
    [[nodiscard]] std::string_view name() const override { return "probe"; }
    void on_start(mpisim::EngineControl& control) override {
      probed_ = true;
      mpisim::NodeView view(control, 1, {2});
      EXPECT_EQ(view.num_nodes(), 1u);
      EXPECT_EQ(view.num_ranks(), 1u);
      EXPECT_EQ(view.threads_per_core_of(0), 4u);
      EXPECT_EQ(view.num_cores_of(0), 3u);
      EXPECT_THROW((void)view.threads_per_core_of(1), InvalidArgument);
      EXPECT_THROW((void)view.num_cores_of(1), InvalidArgument);
      EXPECT_EQ(view.placement().cpu_of_rank.at(0),
                control.placement().cpu_of_rank[2]);
      EXPECT_EQ(view.node_of(RankId{0}), 0u);
      view.set_rank_priority(RankId{0}, 5);
      EXPECT_EQ(control.rank_priority(RankId{2}), 5);
      EXPECT_EQ(view.rank_priority(RankId{0}), 5);
      EXPECT_THROW(view.move_rank(RankId{0}, seat(0, 1)), InvalidArgument);
      EXPECT_EQ(view.comm_graph(), nullptr);
    }

   private:
    bool& probed_;
  } probe(probed);

  cluster::ClusterEngine engine(std::move(app), placement, config);
  engine.set_policy(&probe);
  (void)engine.run();
  EXPECT_TRUE(probed);
}

}  // namespace
}  // namespace smtbal
