#include "probes.hpp"

#include <random>
#include <thread>

#include "isa/kernel.hpp"
#include "service/store.hpp"
#include "smt/sampler.hpp"

namespace perfbench {

namespace {

using namespace smtbal;

constexpr std::size_t kLoadsPerShapeAndThread = 4;
constexpr std::size_t kLookupsPerThread = 200'000;
constexpr int kOpenRepetitions = 3;

std::vector<smt::ChipConfig> probe_shapes() {
  smt::ChipConfig smt2;
  smt::ChipConfig smt4;
  smt4.core.threads_per_core = 4;
  smt::ChipConfig quad;
  quad.num_cores = 4;
  quad.memory.num_cores = 4;
  return {smt2, smt4, quad};
}

/// A random load with every context engaged: a compute kernel (never the
/// spin loop) at a priority in the patched kernel's 2..6 band.
smt::ChipLoad random_load(std::mt19937_64& rng, std::uint32_t contexts) {
  static const std::vector<std::string_view> kernels = {
      isa::kKernelFpuStress, isa::kKernelIntStress, isa::kKernelL2Stress,
      isa::kKernelMemStress, isa::kKernelHpcMixed,  isa::kKernelCfd,
      isa::kKernelDft};
  smt::ChipLoad load;
  for (std::uint32_t c = 0; c < contexts; ++c) {
    const std::string_view kernel = kernels[rng() % kernels.size()];
    load.contexts[c] = smt::ContextLoad{
        isa::KernelRegistry::instance().by_name(kernel).id,
        static_cast<smt::HwPriority>(2 + rng() % 5)};
  }
  return load;
}

double mean_us(std::int64_t total_ns, std::size_t count) {
  return count ? static_cast<double>(total_ns) * 1e-3 / static_cast<double>(count)
               : 0.0;
}

}  // namespace

SamplerProbe sampler_probe(std::uint64_t seed, unsigned threads, SpanLog& spans) {
  const std::vector<smt::ChipConfig> shapes = probe_shapes();
  const smt::ThroughputSampler::Options options;
  const auto cycles_per_measure =
      static_cast<double>(options.warmup_cycles + options.window_cycles);

  // Loads are drawn up front so the set is fixed by the seed alone.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<std::vector<std::vector<smt::ChipLoad>>> loads(threads);
  for (unsigned t = 0; t < threads; ++t) {
    for (const smt::ChipConfig& shape : shapes) {
      std::vector<smt::ChipLoad> set;
      for (std::size_t i = 0; i < kLoadsPerShapeAndThread; ++i) {
        set.push_back(random_load(rng, shape.num_contexts()));
      }
      loads[t].push_back(std::move(set));
    }
  }

  struct Sample {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t key = 0;
    smt::SampleResult result{};
    bool default_shape = false;
  };
  std::vector<std::vector<Sample>> samples(threads);
  const std::int64_t probe_start = now_ns();
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          smt::ThroughputSampler sampler(shapes[s], options);
          for (const smt::ChipLoad& load : loads[t][s]) {
            Sample sample;
            sample.start_ns = now_ns();
            sample.result = sampler.sample(load);
            sample.end_ns = now_ns();
            sample.key = load.key(sampler.shape_seed());
            sample.default_shape = s == 0;
            samples[t].push_back(sample);
          }
        }
      });
    }
  }
  spans.add("probe.ThroughputSampler", probe_start, now_ns());

  SamplerProbe probe;
  double measure_s = 0.0;
  auto cache = std::make_shared<smt::SampleCache>();
  std::vector<std::uint64_t> keys;
  for (const auto& thread_samples : samples) {
    for (const Sample& sample : thread_samples) {
      const double seconds = seconds_between(sample.start_ns, sample.end_ns);
      probe.measure_ms.push_back(seconds * 1e3);
      measure_s += seconds;
      spans.add("ThroughputSampler::sample", sample.start_ns, sample.end_ns);
      if (sample.default_shape) {
        cache->publish(sample.key, sample.result);
        keys.push_back(sample.key);
      }
    }
  }
  probe.cycles_per_s =
      measure_s > 0.0
          ? cycles_per_measure * static_cast<double>(probe.measure_ms.size()) /
                measure_s
          : 0.0;

  // Warm lookups on one shared cache from every probe thread.
  std::vector<std::int64_t> thread_ns(threads, 0);
  const std::int64_t lookup_start = now_ns();
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::int64_t start = now_ns();
        for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
          (void)cache->lookup(keys[(i + t) % keys.size()]);
        }
        thread_ns[t] = now_ns() - start;
      });
    }
  }
  spans.add("probe.SampleCache::lookup", lookup_start, now_ns());
  std::int64_t total_ns = 0;
  for (const std::int64_t ns : thread_ns) total_ns += ns;
  probe.lookup_ns = static_cast<double>(total_ns) /
                    static_cast<double>(kLookupsPerThread * threads);
  return probe;
}

StoreProbe store_probe(const std::vector<StoreEntry>& entries,
                       const std::string& scratch_path,
                       const std::string& journal, SpanLog& spans) {
  StoreProbe probe;
  std::int64_t publish_ns = 0;
  {
    service::ResultStore store;
    store.open(scratch_path);
    for (const StoreEntry& entry : entries) {
      const std::uint64_t key = service::canonical_key(entry.canonical);
      const std::int64_t start = now_ns();
      store.publish(key, entry.canonical, entry.result);
      const std::int64_t end = now_ns();
      spans.add("ResultStore::publish", start, end);
      publish_ns += end - start;
    }
  }
  probe.publish_us = mean_us(publish_ns, entries.size());

  const std::string& path = journal.empty() ? scratch_path : journal;
  std::vector<double> open_ms;
  std::int64_t lookup_ns = 0;
  for (int rep = 0; rep < kOpenRepetitions; ++rep) {
    service::ResultStore store;
    const std::int64_t start = now_ns();
    store.open(path);
    const std::int64_t end = now_ns();
    spans.add("ResultStore::open", start, end);
    open_ms.push_back(seconds_between(start, end) * 1e3);
    if (rep + 1 < kOpenRepetitions) continue;
    for (const StoreEntry& entry : entries) {
      const std::uint64_t key = service::canonical_key(entry.canonical);
      const std::int64_t t0 = now_ns();
      const bool hit = store.lookup(key, entry.canonical).has_value();
      const std::int64_t t1 = now_ns();
      spans.add("ResultStore::lookup", t0, t1);
      lookup_ns += t1 - t0;
      if (hit) ++probe.lookup_hits;
    }
  }
  probe.open_ms = percentile(open_ms, 0.5);
  probe.lookup_us = mean_us(lookup_ns, entries.size());
  return probe;
}

}  // namespace perfbench
