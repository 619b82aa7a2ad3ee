#include "corpus.hpp"

#include <memory>
#include <optional>

#include "cluster/workload.hpp"
#include "core/static_policy.hpp"
#include "policy/registry.hpp"
#include "simcheck/scenario.hpp"
#include "workloads/btmz.hpp"
#include "workloads/cases.hpp"
#include "workloads/drift.hpp"
#include "workloads/metbench.hpp"
#include "workloads/siesta.hpp"
#include "workloads/stencil.hpp"

namespace perfbench {

namespace {

using namespace smtbal;

struct Scenario {
  std::string name;
  mpisim::Application app;
  mpisim::Placement placement;
  mpisim::EngineConfig config{};
  std::optional<cluster::ClusterPlacement> cluster_placement{};
  std::optional<cluster::ClusterConfig> cluster_config{};
};

using Scenarios = std::vector<std::shared_ptr<const Scenario>>;

void add(Scenarios& scenarios, Scenario scenario) {
  scenarios.push_back(std::make_shared<const Scenario>(std::move(scenario)));
}

/// Every entrant on every scenario, scenario-major (the tournament's
/// layout and policy construction).
std::vector<runner::RunSpec> cross(const Scenarios& scenarios) {
  const std::vector<std::string> names = entrants();
  std::vector<runner::RunSpec> specs;
  specs.reserve(scenarios.size() * names.size());
  for (const auto& scenario : scenarios) {
    for (const std::string& entrant : names) {
      runner::RunSpec spec;
      spec.label = scenario->name + " | " + entrant;
      spec.app = scenario->app;
      spec.placement = scenario->placement;
      spec.config = scenario->config;
      spec.cluster_placement = scenario->cluster_placement;
      spec.cluster_config = scenario->cluster_config;
      if (entrant != "none") {
        spec.make_policy = [scenario, entrant] {
          policy::PolicyContext context;
          context.num_ranks = scenario->app.size();
          context.threads_per_core =
              (scenario->cluster_config ? scenario->cluster_config->node.chip
                                        : scenario->config.chip)
                  .threads_per_core();
          context.placement = scenario->cluster_placement
                                  ? &scenario->cluster_placement->within
                                  : &scenario->placement;
          context.cluster = scenario->cluster_placement
                                ? &*scenario->cluster_placement
                                : nullptr;
          return policy::Registry::instance().make(entrant, context);
        };
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// A simcheck fuzz scenario of fixed shape; the seed only drives the
/// fine-grained choices (kernels, instruction counts, messages).
Scenario fuzzed(const std::string& name, simcheck::ScenarioSpec spec) {
  const simcheck::Scenario built = simcheck::build_scenario(spec);
  Scenario scenario{name + "-seed" + std::to_string(spec.seed), built.app,
                    built.placement, built.config};
  if (built.cluster_config.num_nodes > 1) {
    scenario.cluster_placement = built.cluster_placement;
    scenario.cluster_config = built.cluster_config;
  }
  return scenario;
}

Scenario cluster_scenario(std::string name, cluster::SkewedCluster built,
                          cluster::ClusterConfig config) {
  Scenario scenario{std::move(name), std::move(built.app),
                    built.placement.within};
  scenario.cluster_placement = std::move(built.placement);
  scenario.cluster_config = std::move(config);
  return scenario;
}

runner::RunSpec static_spec(std::string label, const mpisim::Application& app,
                            const workloads::PaperCase& c) {
  runner::RunSpec spec;
  spec.label = std::move(label);
  spec.app = app;
  spec.placement = c.placement;
  spec.make_policy = [priorities = c.priorities] {
    return std::unique_ptr<mpisim::BalancePolicy>(
        new core::StaticPriorityPolicy(priorities));
  };
  return spec;
}

}  // namespace

std::vector<std::string> entrants() {
  std::vector<std::string> names = {"none"};
  for (const policy::PolicyInfo& info : policy::Registry::instance().list()) {
    if (info.name != "none") names.push_back(info.name);
  }
  return names;
}

std::vector<runner::RunSpec> paper_specs() {
  std::vector<runner::RunSpec> specs;
  const auto metbench = workloads::build_metbench({});
  for (const workloads::PaperCase& c : workloads::metbench_cases()) {
    specs.push_back(static_spec("paper/table4/" + c.label, metbench, c));
  }
  // Table V's ST row: two ranks, one per core, same total mesh.
  const workloads::BtmzConfig btmz_config;
  workloads::BtmzConfig st = btmz_config;
  st.num_ranks = 2;
  st.bottleneck_instructions *= workloads::btmz_bottleneck_fraction(st) /
                                workloads::btmz_bottleneck_fraction(btmz_config);
  runner::RunSpec st_spec;
  st_spec.label = "paper/table5/ST";
  st_spec.app = workloads::build_btmz(st);
  st_spec.placement = mpisim::Placement::from_linear({0, 2});
  specs.push_back(std::move(st_spec));
  const auto btmz = workloads::build_btmz(btmz_config);
  for (const workloads::PaperCase& c : workloads::btmz_cases()) {
    specs.push_back(static_spec("paper/table5/" + c.label, btmz, c));
  }
  const auto siesta = workloads::build_siesta({});
  for (const workloads::PaperCase& c : workloads::siesta_cases()) {
    specs.push_back(static_spec("paper/table6/" + c.label, siesta, c));
  }
  return specs;
}

std::vector<runner::RunSpec> sweep_cold_specs(std::uint64_t seed) {
  // Every chip is the default 2-core SMT2 shape or a clock-scaled copy,
  // except the 3-core fuzzed one: the sampler probes cover wider chips.
  Scenarios scenarios;
  {
    // Flat: MetBench with both heavy workers on one core, which only a
    // placement move can repair.
    workloads::MetBenchConfig config;
    config.iterations = 3;
    add(scenarios, {"flat/metbench-misseated", workloads::build_metbench(config),
                    mpisim::Placement::from_linear({2, 0, 3, 1})});
  }
  {
    simcheck::ScenarioSpec spec;
    spec.seed = 4200 + seed;
    spec.num_ranks = 6;
    spec.num_cores = 3;
    spec.blocks = 3;
    add(scenarios, fuzzed("fuzz/flat", spec));
  }
  {
    simcheck::ScenarioSpec spec;
    spec.seed = 4300 + seed;
    spec.num_ranks = 8;
    spec.num_nodes = 2;
    spec.num_cores = 2;
    spec.blocks = 3;
    add(scenarios, fuzzed("fuzz/cluster", spec));
  }
  {
    cluster::SkewedClusterConfig config;
    config.iterations = 4;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    add(scenarios, cluster_scenario("cluster/skewed",
                                    cluster::make_skewed_cluster(config),
                                    cluster_config));
  }
  {
    // Heterogeneous: a drifting front across two nodes, the second
    // clocked 20% slower.
    cluster::ClusterConfig config;
    config.num_nodes = 2;
    config.node_shapes = {{}, {.clock_scale = 0.8}};
    workloads::DriftConfig drift;
    drift.num_ranks = 8;
    drift.iterations = 6;
    add(scenarios, cluster_scenario(
                       "cluster/hetero-drift",
                       {workloads::build_drift(drift),
                        cluster::ClusterPlacement::block(8, 2)},
                       config));
  }
  {
    // Migrate: the heavy rank hops between nodes every phase; two ranks
    // per 2-core node leave seats to land on.
    cluster::TimeVaryingClusterConfig config;
    config.ranks_per_node = 2;
    config.heavy_ranks = 1;
    config.iterations = 8;
    config.phase_length = 4;
    config.base_instructions = 1e9;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    add(scenarios,
        cluster_scenario("cluster/migrate-varying",
                         cluster::make_time_varying_cluster(config),
                         cluster_config));
  }
  std::vector<runner::RunSpec> specs = paper_specs();
  for (runner::RunSpec& spec : cross(scenarios)) specs.push_back(std::move(spec));
  return specs;
}

std::vector<runner::RunSpec> horizon_specs() {
  Scenarios scenarios;
  {
    cluster::SkewedClusterConfig config;
    config.num_nodes = 4;
    config.iterations = 300;
    config.node_scale = {1.4, 1.0, 1.2};
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    add(scenarios, cluster_scenario("long/cluster-skewed",
                                    cluster::make_skewed_cluster(config),
                                    cluster_config));
  }
  {
    // Two ranks per default 2-core node leave seats for migration.
    cluster::TimeVaryingClusterConfig config;
    config.num_nodes = 4;
    config.ranks_per_node = 2;
    config.heavy_ranks = 1;
    config.iterations = 320;
    config.phase_length = 20;
    config.base_instructions = 5e8;
    config.heavy_factor = 2.5;
    cluster::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.num_nodes;
    add(scenarios, cluster_scenario("long/cluster-varying",
                                    cluster::make_time_varying_cluster(config),
                                    cluster_config));
  }
  {
    workloads::StencilConfig stencil;
    stencil.num_ranks = 4;
    stencil.iterations = 600;
    stencil.periodic = true;
    add(scenarios, {"long/ring-stencil", workloads::build_stencil(stencil),
                    mpisim::Placement::identity(4)});
  }
  {
    workloads::MetBenchConfig config;
    config.iterations = 400;
    add(scenarios, {"long/metbench", workloads::build_metbench(config),
                    workloads::metbench_cases().front().placement});
  }
  {
    workloads::BtmzConfig config;
    config.iterations = 300;
    add(scenarios, {"long/btmz", workloads::build_btmz(config),
                    workloads::btmz_cases().front().placement});
  }
  return cross(scenarios);
}

}  // namespace perfbench
