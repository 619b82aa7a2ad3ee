// google-benchmark micro-benchmarks of the simulator itself: cycle-level
// core stepping, cache accesses, stream generation, sampler memoisation
// and the discrete-event engine (cold and warm sampler).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "cluster/engine.hpp"
#include "cluster/workload.hpp"
#include "isa/kernel.hpp"
#include "isa/stream.hpp"
#include "mem/hierarchy.hpp"
#include "mpisim/engine.hpp"
#include "smt/chip.hpp"
#include "smt/sampler.hpp"
#include "workloads/stencil.hpp"

using namespace smtbal;

namespace {

const isa::Kernel& hpc() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed);
}

void BM_StreamGen(benchmark::State& state) {
  isa::StreamGen stream(hpc(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamGen);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(mem::CacheConfig{.name = "bench",
                                    .size_bytes = 32 * 1024,
                                    .line_bytes = 128,
                                    .associativity = 4,
                                    .hit_latency = 2});
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(address, false));
    address += 64;
    address &= (1 << 18) - 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  mem::Hierarchy hierarchy{mem::HierarchyConfig{}};
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchy.access(0, address, false));
    address += 128;
    address &= (1 << 22) - 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_CoreStepSolo(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen stream(hpc(), 1);
  chip.bind_stream(config.cpu(0), &stream);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["IPC"] = benchmark::Counter(
      static_cast<double>(chip.perf(config.cpu(0)).retired) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CoreStepSolo);

void BM_CoreStepSmtPair(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen s0(hpc(), 1), s1(hpc(), 2);
  chip.bind_stream(config.cpu(0), &s0);
  chip.bind_stream(config.cpu(1), &s1);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStepSmtPair);

void BM_CoreStepFourContexts(benchmark::State& state) {
  smt::ChipConfig config;
  smt::Chip chip(config);
  isa::StreamGen s0(hpc(), 1), s1(hpc(), 2), s2(hpc(), 3), s3(hpc(), 4);
  chip.bind_stream(config.cpu(0), &s0);
  chip.bind_stream(config.cpu(1), &s1);
  chip.bind_stream(config.cpu(2), &s2);
  chip.bind_stream(config.cpu(3), &s3);
  for (auto _ : state) {
    chip.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreStepFourContexts);

void BM_SamplerColdMeasurement(benchmark::State& state) {
  // Cost of one full cycle-level measurement window (cache miss).
  const auto kernel = hpc().id;
  for (auto _ : state) {
    smt::ThroughputSampler sampler(
        smt::ChipConfig{},
        smt::ThroughputSampler::Options{.warmup_cycles = 30000,
                                        .window_cycles = 120000,
                                        .seed = 1});
    smt::ChipLoad load;
    load.contexts[0] = smt::ContextLoad{kernel, smt::HwPriority::kMedium};
    load.contexts[1] = smt::ContextLoad{kernel, smt::HwPriority::kMedium};
    benchmark::DoNotOptimize(sampler.sample(load));
  }
}
BENCHMARK(BM_SamplerColdMeasurement)->Unit(benchmark::kMillisecond);

void BM_SamplerMemoisedLookup(benchmark::State& state) {
  const auto kernel = hpc().id;
  smt::ThroughputSampler sampler{smt::ChipConfig{}};
  smt::ChipLoad load;
  load.contexts[0] = smt::ContextLoad{kernel, smt::HwPriority::kMedium};
  (void)sampler.sample(load);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(load));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerMemoisedLookup);

void BM_EngineBarrierApp(benchmark::State& state) {
  // Discrete-event engine throughput: a 4-rank barrier app with a warm
  // shared sampler; measures pure engine overhead per run.
  const auto kernel = hpc().id;
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  mpisim::Application app;
  app.ranks.resize(4);
  for (auto& rank : app.ranks) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      rank.compute(kernel, 1e8).barrier();
    }
  }
  const auto placement = mpisim::Placement::identity(4);
  for (auto _ : state) {
    mpisim::Engine engine(app, placement, config, sampler);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineBarrierApp)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_EngineBarrierAppWide(benchmark::State& state) {
  // Event-kernel scaling: the same barrier app at 16 ranks on an 8-core
  // chip. With the O(ranks) per-step rescan this grew linearly in rank
  // count per event; the heap-based kernel pays O(log ranks) per pop, so
  // per-barrier cost should stay close to the 4-rank figure.
  const auto kernel = hpc().id;
  mpisim::EngineConfig config;
  config.chip.num_cores = 8;
  config.chip.memory.num_cores = 8;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  constexpr std::size_t kRanks = 16;
  mpisim::Application app;
  app.ranks.resize(kRanks);
  std::uint64_t spread = 0;
  for (auto& rank : app.ranks) {
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      // Slightly uneven work so ranks finish at distinct times (the
      // worst case for the rescan: every completion is its own step).
      rank.compute(kernel, 1e8 + 1e5 * static_cast<double>(spread % kRanks))
          .barrier();
    }
    ++spread;
  }
  const auto placement = mpisim::Placement::identity(kRanks);
  for (auto _ : state) {
    mpisim::Engine engine(app, placement, config, sampler);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kRanks);
}
BENCHMARK(BM_EngineBarrierAppWide)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_EngineWarm(benchmark::State& state) {
  // Event-kernel throughput on a warm sampler: one untimed run fills the
  // sampler's memo, so every timed rate lookup is a hit and the loop
  // measures the mpisim event kernel (and, for the cluster, the
  // multi-node bookkeeping) without cold cycle-model work. Items are
  // engine events, so the rate reads as events/s.
  // Arg 0: a 4-rank periodic ring stencil on one chip (point-to-point
  // halos). Arg 1: the skewed 4-node cluster (barriers, 4 ranks a node).
  mpisim::EngineConfig config;
  config.sampler = {.warmup_cycles = 20000, .window_cycles = 80000, .seed = 1};
  auto sampler =
      std::make_shared<smt::ThroughputSampler>(config.chip, config.sampler);
  const bool cluster = state.range(0) == 1;
  workloads::StencilConfig stencil;
  stencil.num_ranks = 4;
  stencil.iterations = 100;
  stencil.periodic = true;
  const mpisim::Application ring = workloads::build_stencil(stencil);
  cluster::SkewedClusterConfig skewed;
  skewed.num_nodes = 4;
  skewed.iterations = 50;
  skewed.node_scale = {1.4, 1.0, 1.2};
  const cluster::SkewedCluster skewed_cluster =
      cluster::make_skewed_cluster(skewed);
  cluster::ClusterConfig cluster_config;
  cluster_config.num_nodes = skewed.num_nodes;
  cluster_config.node = config;
  const auto run_once = [&]() -> std::uint64_t {
    if (cluster) {
      cluster::ClusterEngine engine(skewed_cluster.app,
                                    skewed_cluster.placement, cluster_config,
                                    sampler);
      return engine.run().flat.events;
    }
    mpisim::Engine engine(ring, mpisim::Placement::identity(4), config,
                          sampler);
    return engine.run().events;
  };
  (void)run_once();  // warm the sampler outside the timed loop
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t run_events = run_once();
    benchmark::DoNotOptimize(run_events);
    events += run_events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(cluster ? "skewed 4-node cluster" : "ring stencil");
}
BENCHMARK(BM_EngineWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
