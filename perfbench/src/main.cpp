// perfbench_driver: one process of the smtbalance benchmark.
//
//   perfbench_driver <workload> --seed N --trace 0|1 [--seconds S]
//
// <workload> is sweep-cold (one cold pass per process), horizon-warm,
// service-openloop, or paper (the Table IV/V/VI cases alone). It uses
// every CPU the process may run on and writes its files (result-store
// journals, spans.jsonl) in the working directory. The process prints one
// JSON object on its last stdout line: raw measurements plus run digests
// with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
// aggregates, checks and prints the benchmark's result line.
#include <sched.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "corpus.hpp"
#include "openloop.hpp"
#include "probes.hpp"
#include "traced.hpp"

using namespace smtbal;
using namespace perfbench;

namespace {

/// setup_s is the median of this many samples; a horizon-warm set-up is a
/// full cold pass, so it is sampled only twice.
constexpr int kSetupSamples = 51;
constexpr int kHorizonSetupSamples = 2;
/// Set-ups timed back to back in one sample, where one takes about a
/// millisecond or less: enough work per sample for a steady clock.
constexpr int kSweepSetupsPerSample = 8;
constexpr int kServiceSetupsPerSample = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned jobs = 1;   ///< CPUs this process may run on
  int setup_samples = 1;  ///< 1 in a traced run
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing workload");
  Args args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  args.jobs = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                  ? static_cast<unsigned>(std::max(1, CPU_COUNT(&cpus)))
                  : 1;
  if (!args.trace) {
    args.setup_samples =
        args.workload == "horizon-warm" ? kHorizonSetupSamples : kSetupSamples;
  }
  return args;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += jsonl::json_num(values[i]);
  }
  return out + "]";
}

/// The per-layer metrics of one traced run, by BENCHMARK.json name.
/// Metrics of a layer the workload does not reach stay 0.
class Layers {
 public:
  Layers() {
    for (const char* name :
         {"smt.cold_measurements", "smt.duplicate_measurements",
          "smt.cache_hit_ratio", "smt.cache_lookups", "smt.cold_s",
          "smt.cold_share", "smt.measure_ms_p50", "smt.measure_ms_p99",
          "smt.measure_samples", "smt.cycles_per_s", "smt.lookup_ns",
          "mpisim.events", "mpisim.trace_intervals", "mpisim.engine_s",
          "mpisim.events_per_s", "cluster.messages", "cluster.migrations",
          "cluster.migration_bytes", "policy.decide_s",
          "policy.decide_us_per_epoch", "policy.decide_us_per_epoch.repartition",
          "policy.epochs", "policy.actuations", "runner.busy_ratio",
          "runner.tail_s", "service.evaluated", "service.deduped",
          "service.waves", "service.wave_size_mean", "service.rejected_ratio",
          "service.interactive_p50_ms", "service.interactive_p99_ms",
          "service.interactive_samples", "service.batch_p50_ms",
          "service.batch_p99_ms", "service.batch_samples", "service.max_qps",
          "gen.lag_ms_p99", "store.hit_ratio", "store.inserts",
          "store.lookup_us", "store.publish_us", "store.open_ms",
          "workloads.build_s", "trace.overhead_ratio", "trace.spans"}) {
      values_[name] = 0.0;
    }
  }

  void set(const std::string& name, double value) {
    if (!values_.contains(name)) throw std::logic_error("unknown metric " + name);
    values_[name] = value;
  }

  [[nodiscard]] std::string json() const {
    JsonObject out;
    for (const auto& [name, value] : values_) out.num(name, value);
    return out.text();
  }

  /// Cache counters of the timed (or traced) part.
  void cache(const smt::SampleCacheStats& stats) {
    set("smt.cold_measurements", static_cast<double>(stats.misses));
    set("smt.duplicate_measurements",
        static_cast<double>(stats.misses - std::min(stats.misses, stats.inserts)));
    set("smt.cache_lookups", static_cast<double>(stats.hits + stats.misses));
    set("smt.cache_hit_ratio", stats.hit_rate());
  }

  /// Difference method: cold spans minus the warm re-run of each spec.
  void cold_split(const TracedBatch& cold, const TracedBatch& warm) {
    double cold_s = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < cold.runs.size(); ++i) {
      cold_s += cold.runs[i].span_s() - warm.runs[i].span_s();
      total += cold.runs[i].span_s();
    }
    set("smt.cold_s", cold_s);
    set("smt.cold_share", total > 0.0 ? cold_s / total : 0.0);
  }

  /// Event kernel, cluster and policy numbers from a warm traced pass.
  void engine(const TracedBatch& warm) {
    double engine_s = 0.0;
    double decide_s = 0.0;
    double repartition_s = 0.0;
    double events = 0.0, intervals = 0.0, messages = 0.0, migrations = 0.0,
           bytes = 0.0, epochs = 0.0, repartition_epochs = 0.0, actuations = 0.0;
    for (const TracedRun& run : warm.runs) {
      engine_s += run.self_s();
      const double decide = static_cast<double>(run.decide_ns) * 1e-9;
      decide_s += decide;
      events += static_cast<double>(run.digest.events);
      intervals += static_cast<double>(run.digest.trace_intervals);
      messages += static_cast<double>(run.messages);
      migrations += static_cast<double>(run.migrations);
      bytes += static_cast<double>(run.migration_bytes);
      epochs += static_cast<double>(run.epochs);
      actuations += static_cast<double>(run.actuations);
      if (run.policy == "repartition") {
        repartition_s += decide;
        repartition_epochs += static_cast<double>(run.epochs);
      }
    }
    set("mpisim.engine_s", engine_s);
    set("mpisim.events", events);
    set("mpisim.events_per_s", engine_s > 0.0 ? events / engine_s : 0.0);
    set("mpisim.trace_intervals", intervals);
    set("cluster.messages", messages);
    set("cluster.migrations", migrations);
    set("cluster.migration_bytes", bytes);
    set("policy.decide_s", decide_s);
    set("policy.epochs", epochs);
    set("policy.actuations", actuations);
    set("policy.decide_us_per_epoch", epochs > 0.0 ? decide_s * 1e6 / epochs : 0.0);
    set("policy.decide_us_per_epoch.repartition",
        repartition_epochs > 0.0 ? repartition_s * 1e6 / repartition_epochs : 0.0);
  }

  void runner(const TracedBatch& batch) {
    set("runner.busy_ratio", batch.busy_ratio());
    set("runner.tail_s", batch.tail_s());
  }

  void probes(const SamplerProbe& sampler, const StoreProbe& store) {
    set("smt.measure_ms_p50", percentile(sampler.measure_ms, 0.50));
    set("smt.measure_ms_p99", percentile(sampler.measure_ms, 0.99));
    set("smt.measure_samples", static_cast<double>(sampler.measure_ms.size()));
    set("smt.cycles_per_s", sampler.cycles_per_s);
    set("smt.lookup_ns", sampler.lookup_ns);
    set("store.lookup_us", store.lookup_us);
    set("store.publish_us", store.publish_us);
    set("store.open_ms", store.open_ms);
  }

 private:
  std::map<std::string, double> values_;
};

std::vector<StoreEntry> store_entries(const std::vector<RunDigest>& digests) {
  std::vector<StoreEntry> entries;
  for (const RunDigest& d : digests) {
    if (!d.ok) continue;
    service::EvalResult result;
    result.exec_time = d.exec_time;
    result.imbalance = d.imbalance;
    result.events = d.events;
    entries.push_back(StoreEntry{"perfbench{" + d.label + "}", result});
  }
  return entries;
}

std::vector<std::string> failures(const std::vector<RunDigest>& digests) {
  std::vector<std::string> bad;
  for (const RunDigest& d : digests) {
    if (!d.ok) bad.push_back(d.label + ": " + d.error);
  }
  return bad;
}

/// Runs `specs` through BatchRunner with `caches` as its domain caches.
runner::BatchResult run_batch(const std::vector<runner::RunSpec>& specs,
                              unsigned jobs, DomainCaches& caches) {
  return runner::BatchRunner(caches.batch_options(jobs)).run(specs);
}

/// Median seconds of one set-up over `samples` samples. Each sample
/// times `per_sample` set-ups back to back; `tear_down`, outside the
/// clock, clears what a sample built before the next sample starts.
template <typename SetUp, typename TearDown>
double timed_setup(int samples, int per_sample, SetUp&& set_up,
                   TearDown&& tear_down) {
  std::vector<double> seconds;
  for (int sample = 0; sample < samples; ++sample) {
    if (sample) tear_down();
    const std::int64_t start = now_ns();
    for (int k = 0; k < per_sample; ++k) set_up();
    seconds.push_back(seconds_between(start, now_ns()) / per_sample);
  }
  return percentile(seconds, 0.5);
}

/// The shared end of the two sweeps' traced runs: the layer probes (the
/// store probe on a journal of the sweep's own results), the span file
/// and the result object.
std::string traced_batch_result(const Args& args, Layers& layers, SpanLog& spans,
                                const std::vector<RunDigest>& digests,
                                const std::vector<std::string>& bad) {
  const SamplerProbe sampler = sampler_probe(args.seed, args.jobs, spans);
  const std::vector<StoreEntry> entries = store_entries(digests);
  const StoreProbe store =
      store_probe(entries, "probe-store.jsonl", "", spans);
  layers.probes(sampler, store);
  layers.set("store.hit_ratio",
             entries.empty() ? 0.0
                             : static_cast<double>(store.lookup_hits) /
                                   static_cast<double>(entries.size()));
  layers.set("store.inserts", static_cast<double>(entries.size()));
  layers.set("trace.spans", static_cast<double>(spans.size()));
  spans.write("spans.jsonl");
  return JsonObject()
      .raw("layers", layers.json())
      .raw("mismatches", json_strings(bad))
      .raw("failures", json_strings(failures(digests)))
      .raw("digests", json_digests(digests))
      .text();
}

// --- sweep-cold --------------------------------------------------------------

std::string sweep_cold(const Args& args) {
  std::vector<std::vector<runner::RunSpec>> built;
  const double build_s = timed_setup(
      args.setup_samples, kSweepSetupsPerSample,
      [&] { built.push_back(sweep_cold_specs(args.seed)); }, [&] { built.clear(); });
  const std::vector<runner::RunSpec> specs = std::move(built.back());
  built.clear();
  if (!args.trace) {
    DomainCaches caches;
    const double cpu_start = process_cpu_s();
    const std::int64_t start = now_ns();
    const runner::BatchResult cold = run_batch(specs, args.jobs, caches);
    const double wall = seconds_between(start, now_ns());
    const double cpu = process_cpu_s() - cpu_start;
    const double rss = peak_rss_mb();
    const smt::SampleCacheStats stats = caches.stats();
    // Warm re-run on the now-warm caches: outputs must not change.
    const runner::BatchResult warm = run_batch(specs, args.jobs, caches);
    std::uint64_t summed_run_misses = 0;
    for (const auto& run : cold.runs) {
      if (run.ok) summed_run_misses += run.result->sampler_stats.misses;
    }
    const std::vector<RunDigest> digests = digests_of(cold);
    JsonObject out;
    out.num("setup_s", build_s)
        .count("runs", specs.size())
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .num("peak_rss_mb", rss)
        .count("cold_measurements", stats.misses)
        .count("cache_inserts", stats.inserts)
        .count("batch_sampler_misses", cold.sampler_stats.misses)
        .count("summed_run_sampler_misses", summed_run_misses)
        .raw("mismatches", json_strings(mismatches(digests, digests_of(warm))))
        .raw("failures", json_strings(failures(digests)))
        .raw("digests", json_digests(digests));
    return out.text();
  }

  Layers layers;
  SpanLog spans;
  layers.set("workloads.build_s", build_s);
  DomainCaches untraced_caches;
  std::int64_t start = now_ns();
  const runner::BatchResult untraced = run_batch(specs, args.jobs, untraced_caches);
  const std::int64_t untraced_end = now_ns();
  spans.add("BatchRunner::run", start, untraced_end);

  DomainCaches caches;
  TracedBatch cold = run_traced(specs, args.jobs, caches);
  const smt::SampleCacheStats cold_stats = caches.stats();
  TracedBatch warm = run_traced(specs, args.jobs, caches);
  const std::vector<RunDigest> observed = observe(specs, args.jobs, caches, warm);
  layers.cache(cold_stats);
  layers.cold_split(cold, warm);
  layers.engine(warm);
  layers.runner(cold);
  layers.set("trace.overhead_ratio",
             cold.wall_s() / seconds_between(start, untraced_end) - 1.0);

  std::vector<std::string> bad = mismatches(digests_of(untraced), cold.digests());
  for (const std::string& label : mismatches(cold.digests(), warm.digests())) {
    bad.push_back("warm " + label);
  }
  for (const std::string& label : mismatches(warm.digests(), observed)) {
    bad.push_back("observed " + label);
  }
  spans.add_batch(cold, spans.add("batch.cold", cold.start_ns, cold.end_ns), "cold");
  spans.add_batch(warm, spans.add("batch.warm", warm.start_ns, warm.end_ns), "warm");

  return traced_batch_result(args, layers, spans, digests_of(untraced), bad);
}

// --- horizon-warm ------------------------------------------------------------

std::string horizon_warm(const Args& args) {
  std::vector<runner::RunSpec> specs;
  auto caches = std::make_unique<DomainCaches>();

  if (!args.trace) {
    runner::BatchResult warmup;
    // Set-up = build the corpus and warm every sampler cache with one
    // cold pass, from scratch each repetition.
    const double setup_s = timed_setup(
        args.setup_samples, 1,
        [&] {
          specs = horizon_specs();
          caches = std::make_unique<DomainCaches>();
          warmup = run_batch(specs, args.jobs, *caches);
        },
        [&] {
          specs.clear();
          caches.reset();
          warmup = {};
        });
    const std::vector<RunDigest> reference = digests_of(warmup);
    const smt::SampleCacheStats before = caches->stats();

    std::vector<double> walls, cpus;
    std::vector<std::string> bad;
    const std::int64_t timed_start = now_ns();
    do {
      const double cpu_start = process_cpu_s();
      const std::int64_t start = now_ns();
      const runner::BatchResult pass = run_batch(specs, args.jobs, *caches);
      walls.push_back(seconds_between(start, now_ns()));
      cpus.push_back(process_cpu_s() - cpu_start);
      for (const std::string& label : mismatches(reference, digests_of(pass))) {
        bad.push_back("pass " + std::to_string(walls.size()) + " " + label);
      }
    } while (seconds_between(timed_start, now_ns()) < args.seconds ||
             walls.size() < 3);
    const double rss = peak_rss_mb();
    const smt::SampleCacheStats after = caches->stats();
    JsonObject out;
    out.num("setup_s", setup_s)
        .count("runs", specs.size())
        .raw("pass_wall_s", json_numbers(walls))
        .raw("pass_cpu_s", json_numbers(cpus))
        .num("peak_rss_mb", rss)
        .count("cold_measurements", after.misses - before.misses)
        .raw("mismatches", json_strings(bad))
        .raw("failures", json_strings(failures(reference)))
        .raw("digests", json_digests(reference));
    return out.text();
  }

  Layers layers;
  SpanLog spans;
  std::int64_t start = now_ns();
  specs = horizon_specs();
  layers.set("workloads.build_s", seconds_between(start, now_ns()));
  TracedBatch cold = run_traced(specs, args.jobs, *caches);
  const smt::SampleCacheStats before = caches->stats();

  start = now_ns();
  const runner::BatchResult untraced = run_batch(specs, args.jobs, *caches);
  const std::int64_t untraced_end = now_ns();
  spans.add("BatchRunner::run", start, untraced_end);
  TracedBatch warm = run_traced(specs, args.jobs, *caches);
  smt::SampleCacheStats timed = caches->stats();
  timed.hits -= before.hits;
  timed.misses -= before.misses;
  timed.inserts -= before.inserts;
  const std::vector<RunDigest> observed = observe(specs, args.jobs, *caches, warm);
  layers.cache(timed);
  layers.cold_split(cold, warm);
  layers.engine(warm);
  layers.runner(warm);
  layers.set("trace.overhead_ratio",
             warm.wall_s() / seconds_between(start, untraced_end) - 1.0);

  std::vector<std::string> bad = mismatches(digests_of(untraced), warm.digests());
  for (const std::string& label : mismatches(cold.digests(), warm.digests())) {
    bad.push_back("cold " + label);
  }
  for (const std::string& label : mismatches(warm.digests(), observed)) {
    bad.push_back("observed " + label);
  }
  spans.add_batch(cold, spans.add("batch.cold", cold.start_ns, cold.end_ns), "cold");
  spans.add_batch(warm, spans.add("batch.warm", warm.start_ns, warm.end_ns), "warm");

  return traced_batch_result(args, layers, spans, digests_of(untraced), bad);
}

// --- paper -------------------------------------------------------------------

/// The Table IV/V/VI cases on fresh caches: the paper checks of the
/// workloads whose own corpus does not hold them.
std::string paper(const Args& args) {
  DomainCaches caches;
  const std::vector<RunDigest> digests =
      digests_of(run_batch(paper_specs(), args.jobs, caches));
  return JsonObject()
      .raw("mismatches", "[]")
      .raw("failures", json_strings(failures(digests)))
      .raw("digests", json_digests(digests))
      .text();
}

// --- service-openloop --------------------------------------------------------

/// Offered load of the nominal phase, requests per second: about 1/32
/// of the warm capacity the ladder measures (service.max_qps, 32k on a
/// 4-vCPU VM), low enough that the cold start — the universe's first
/// evaluations — queues well inside the default 1024-slot admission bound.
constexpr double kNominalRate = 1000.0;
constexpr double kLadderStepSeconds = 1.0;
constexpr double kP99LimitMs = 50.0;
/// Offered rates of the capacity ladder, doubling from 1000 requests/s.
const std::vector<double> kLadder = {1e3, 2e3, 4e3, 8e3, 16e3, 32e3, 64e3, 128e3};
/// Closed-loop bursts that measure the service's throughput on the warm
/// store: requests per burst, requests outstanding (below the batch
/// lane's share of the default queue, so admission never refuses), and
/// bursts per run.
constexpr std::size_t kBurstRequests = 20000;
constexpr std::size_t kBurstWindow = 256;
constexpr int kBursts = 9;
/// Answered entries re-evaluated directly in an untraced run.
constexpr std::size_t kDirectSample = 6;
/// Service workers, where the deployed default is every CPU. Each worker
/// of an evaluation wave is a fresh thread that builds its own
/// cycle-model chip (~7 MB) in whichever allocator arena it gets, so with
/// three workers the peak RSS ranged from 78 to 117 MiB over six seeds;
/// with one it stays within a chip.
constexpr unsigned kServiceWorkers = 1;

struct LaneStats {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

/// Latency percentiles from the due time. A refused request counts as
/// infinitely late; an infinite percentile prints as kRefusedMs so the
/// result line stays valid JSON.
constexpr double kRefusedMs = 1e9;

LaneStats lane_stats(const Phase& phase, std::optional<service::Lane> lane) {
  std::vector<double> latencies;
  for (const RequestRecord& record : phase.records) {
    if (!lane || record.lane == *lane) latencies.push_back(record.latency_ms());
  }
  return LaneStats{std::min(percentile(latencies, 0.5), kRefusedMs),
                   std::min(percentile(latencies, 0.99), kRefusedMs),
                   latencies.size()};
}

/// A rung passes when its p99 meets the limit, nothing was refused and
/// the backlog did not grow: the last tenth of the requests waited no
/// longer than the first tenth plus the limit.
bool rung_passes(const Phase& phase) {
  const std::size_t n = phase.records.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  std::vector<double> head, tail;
  for (std::size_t i = 0; i < n; ++i) {
    if (phase.records[i].rejected()) return false;
    if (i < tenth) head.push_back(phase.records[i].latency_ms());
    if (i >= n - tenth) tail.push_back(phase.records[i].latency_ms());
  }
  return lane_stats(phase, std::nullopt).p99 <= kP99LimitMs &&
         percentile(tail, 0.5) <= percentile(head, 0.5) + kP99LimitMs;
}

std::string service_openloop(const Args& args) {
  const std::vector<UniverseEntry> universe = request_universe();
  // Set-up = the inputs (each entry's canonical request and its spec for
  // the direct check) and a service on a fresh, empty store, with the
  // deployed defaults but for the workers.
  std::vector<std::string> canonical;
  std::vector<runner::RunSpec> entry_specs;
  std::vector<std::unique_ptr<service::EvalService>> services;
  std::vector<std::string> store_paths;
  double build_s = 0.0;
  const double setup_s = timed_setup(
      args.setup_samples, kServiceSetupsPerSample,
      [&] {
        const std::int64_t build_start = now_ns();
        canonical.clear();
        entry_specs.clear();
        for (std::size_t e = 0; e < universe.size(); ++e) {
          canonical.push_back(canonical_request(universe[e]));
          entry_specs.push_back(direct_spec(universe[e], "service/" + std::to_string(e)));
        }
        build_s = seconds_between(build_start, now_ns());
        service::ServiceConfig config;
        config.workers = kServiceWorkers;
        config.store_path = store_paths.emplace_back(
            "store-" + std::to_string(store_paths.size()) + ".jsonl");
        services.push_back(std::make_unique<service::EvalService>(config));
      },
      [&] {
        services.clear();
        for (const std::string& path : store_paths) std::filesystem::remove(path);
        store_paths.clear();
      });
  const std::unique_ptr<service::EvalService> service = std::move(services.back());
  const std::string store_path = store_paths.back();
  services.clear();

  const auto nominal_count =
      static_cast<std::size_t>(kNominalRate * args.seconds);
  const Phase nominal =
      run_phase(*service, universe, kNominalRate, nominal_count, args.seed, "n");
  const service::ServiceStats stats = service->stats();
  const double rss = peak_rss_mb();
  std::vector<Phase> bursts;
  std::vector<double> burst_per_s, burst_cpu_s;
  for (int b = 0; b < kBursts; ++b) {
    bursts.push_back(run_saturated(*service, universe, kBurstRequests, kBurstWindow,
                                   args.seed * 131 + static_cast<std::uint64_t>(b),
                                   "s" + std::to_string(b)));
    burst_per_s.push_back(bursts.back().rate);
    burst_cpu_s.push_back(bursts.back().cpu_s);
  }
  // The capacity ladder feeds only the per-layer service.max_qps, so it
  // runs in the traced run alone.
  double max_qps = 0.0;
  for (std::size_t k = 0; args.trace && k < kLadder.size(); ++k) {
    const Phase rung = run_phase(
        *service, universe, kLadder[k],
        static_cast<std::size_t>(kLadder[k] * kLadderStepSeconds),
        args.seed * 31 + k + 1, "l" + std::to_string(k));
    if (!rung_passes(rung)) break;
    max_qps = kLadder[k];
  }
  service->shutdown();

  // Every answer for one universe entry must carry the same result and
  // the key of the entry's canonical request; a burst must not be refused.
  std::vector<std::string> bad;
  std::vector<std::optional<service::EvalResponse>> answer(universe.size());
  std::uint64_t served = 0;
  std::uint64_t requests = 0;
  std::vector<double> lag_ms;
  for (const RequestRecord& record : nominal.records) {
    lag_ms.push_back(static_cast<double>(record.sent_ns - record.due_ns) * 1e-6);
  }
  std::vector<const Phase*> checked_phases = {&nominal};
  for (const Phase& burst : bursts) checked_phases.push_back(&burst);
  for (const Phase* phase : checked_phases) {
    for (const RequestRecord& record : phase->records) {
      ++requests;
      if (record.response.status == service::Status::kError) {
        bad.push_back("error " + record.response.id + ": " + record.response.error);
      }
      if (phase != &nominal && record.rejected()) {
        bad.push_back("refused in a burst " + record.response.id);
      }
      if (!record.ok()) continue;
      if (phase == &nominal) ++served;
      auto& first = answer[record.entry];
      if (!first) {
        first = record.response;
        if (first->key != service::canonical_key(canonical[record.entry])) {
          bad.push_back("key " + record.response.id);
        }
      } else if (!(first->result == record.response.result) ||
                 first->key != record.response.key) {
        bad.push_back("inconsistent " + record.response.id);
      }
    }
  }

  // A seeded sample of the answered entries (all of them when traced),
  // evaluated directly through BatchRunner, must match the answers.
  std::vector<std::size_t> answered;
  for (std::size_t e = 0; e < universe.size(); ++e) {
    if (answer[e]) answered.push_back(e);
  }
  std::vector<std::size_t> sample = answered;
  if (!args.trace) {
    std::mt19937_64 rng(args.seed + 99);
    for (std::size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng() % i]);
    }
    sample.resize(std::min<std::size_t>(sample.size(), kDirectSample));
  }
  std::vector<runner::RunSpec> direct;
  for (const std::size_t e : sample) direct.push_back(entry_specs[e]);
  DomainCaches caches;
  const std::int64_t start = now_ns();
  const runner::BatchResult checked = run_batch(direct, args.jobs, caches);
  const std::int64_t untraced_end = now_ns();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const runner::RunOutcome& out = checked.runs[i];
    const service::EvalResult& served_result = answer[sample[i]]->result;
    if (!out.ok || out.result->exec_time != served_result.exec_time ||
        out.result->imbalance != served_result.imbalance ||
        out.result->events != served_result.events ||
        out.result->priority_resets != served_result.priority_resets) {
      bad.push_back("direct " + out.label);
    }
  }

  JsonObject out;
  out.num("setup_s", setup_s)
      .count("requests", requests)
      .count("served", served)
      .raw("burst_per_s", json_numbers(burst_per_s))
      .raw("burst_cpu_s", json_numbers(burst_cpu_s))
      .count("burst_requests", kBurstRequests)
      .num("peak_rss_mb", rss)
      .raw("failures", json_strings(failures(digests_of(checked))))
      .raw("digests", "[]");
  if (!args.trace) return out.raw("mismatches", json_strings(bad)).text();

  Layers layers;
  SpanLog spans;
  layers.set("workloads.build_s", build_s);
  for (const RequestRecord& record : nominal.records) {
    spans.add("EvalService::submit", record.sent_ns, record.done_ns);
  }
  spans.add("BatchRunner::run", start, untraced_end);
  DomainCaches traced_caches;
  TracedBatch cold = run_traced(direct, args.jobs, traced_caches);
  TracedBatch warm = run_traced(direct, args.jobs, traced_caches);
  const std::vector<RunDigest> observed =
      observe(direct, args.jobs, traced_caches, warm);
  for (const std::string& label : mismatches(digests_of(checked), cold.digests())) {
    bad.push_back("traced " + label);
  }
  for (const std::string& label : mismatches(cold.digests(), warm.digests())) {
    bad.push_back("warm " + label);
  }
  for (const std::string& label : mismatches(warm.digests(), observed)) {
    bad.push_back("observed " + label);
  }
  layers.cache(stats.cache);
  layers.cold_split(cold, warm);
  layers.engine(warm);
  layers.runner(cold);
  layers.set("trace.overhead_ratio",
             cold.wall_s() / seconds_between(start, untraced_end) - 1.0);
  spans.add_batch(cold, spans.add("batch.cold", cold.start_ns, cold.end_ns), "cold");
  spans.add_batch(warm, spans.add("batch.warm", warm.start_ns, warm.end_ns), "warm");

  const LaneStats interactive = lane_stats(nominal, service::Lane::kInteractive);
  const LaneStats batch = lane_stats(nominal, service::Lane::kBatch);
  layers.set("service.evaluated", static_cast<double>(stats.evaluated));
  layers.set("service.deduped", static_cast<double>(stats.deduped));
  layers.set("service.waves", static_cast<double>(stats.waves));
  layers.set("service.wave_size_mean",
             stats.waves ? static_cast<double>(stats.submitted - stats.rejected) /
                               static_cast<double>(stats.waves)
                         : 0.0);
  layers.set("service.rejected_ratio",
             static_cast<double>(stats.rejected) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.submitted)));
  layers.set("service.interactive_p50_ms", interactive.p50);
  layers.set("service.interactive_p99_ms", interactive.p99);
  layers.set("service.interactive_samples", static_cast<double>(interactive.samples));
  layers.set("service.batch_p50_ms", batch.p50);
  layers.set("service.batch_p99_ms", batch.p99);
  layers.set("service.batch_samples", static_cast<double>(batch.samples));
  layers.set("service.max_qps", max_qps);
  layers.set("gen.lag_ms_p99", percentile(lag_ms, 0.99));
  layers.set("store.hit_ratio", stats.store.hit_rate());
  layers.set("store.inserts", static_cast<double>(stats.store.inserts));

  std::vector<StoreEntry> entries;
  for (const std::size_t e : answered) {
    entries.push_back(StoreEntry{canonical[e], answer[e]->result});
  }
  const SamplerProbe sampler = sampler_probe(args.seed, args.jobs, spans);
  const StoreProbe store =
      store_probe(entries, "probe-store.jsonl", store_path, spans);
  if (store.lookup_hits != entries.size()) bad.push_back("store probe missed entries");
  layers.probes(sampler, store);
  layers.set("trace.spans", static_cast<double>(spans.size()));
  spans.write("spans.jsonl");

  out.raw("layers", layers.json()).raw("mismatches", json_strings(bad));
  return out.text();
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  std::string result;
  if (args.workload == "sweep-cold") {
    result = sweep_cold(args);
  } else if (args.workload == "horizon-warm") {
    result = horizon_warm(args);
  } else if (args.workload == "service-openloop") {
    result = service_openloop(args);
  } else if (args.workload == "paper") {
    result = paper(args);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  std::cout << result << '\n';
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_driver: " << e.what() << '\n';
  return 1;
}
