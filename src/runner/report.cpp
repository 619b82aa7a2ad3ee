#include "runner/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace smtbal::runner {

namespace {

using jsonl::Writer;

void add_histogram(Writer& w, std::string_view key,
                   const mpisim::DurationHistogram& histogram) {
  w.array(key);
  for (const std::uint64_t count : histogram.counts) w.push(count);
  w.end();
}

/// Shared body of the run/2 (flat) and run/3 (cluster) records. The
/// cluster variant adds a "node" field per rank and a per-node aggregate
/// array; the flat record is byte-for-byte what it always was.
std::string json_run_record(const RunOutcome& outcome,
                            const std::vector<std::uint32_t>* node_of_rank) {
  Writer w("schema",
           node_of_rank ? "smtbal.bench.run/3" : "smtbal.bench.run/2",
           "label", outcome.label, "index", outcome.index, "ok", outcome.ok);
  if (!outcome.ok) return w.add("error", outcome.error).finish();
  const mpisim::RunResult& r = *outcome.result;
  w.add("exec_time", r.exec_time, "imbalance", r.imbalance, "events",
        r.events, "priority_resets", r.priority_resets, "epochs",
        r.metrics.epochs);
  w.object("events_by_kind");
  for (std::size_t k = 0; k < mpisim::kNumEventKinds; ++k) {
    w.add(mpisim::to_string(static_cast<mpisim::EventKind>(k)),
          r.metrics.events_by_kind[k]);
  }
  w.end().array("ranks");
  for (std::size_t rank = 0; rank < r.trace.num_ranks(); ++rank) {
    const trace::RankStats stats = r.trace.stats(RankId{
        static_cast<std::uint32_t>(rank)});
    w.object();
    if (node_of_rank != nullptr) w.add("node", (*node_of_rank)[rank]);
    w.add("comp_fraction", stats.comp_fraction(), "sync_fraction",
          stats.sync_fraction());
    if (rank < r.metrics.ranks.size()) {
      const mpisim::RankMetrics& m = r.metrics.ranks[rank];
      w.add("compute_s", m.compute, "wait_s", m.wait, "spin_s", m.spin,
            "preempted_s", m.preempted, "priority_changes",
            m.priority_changes);
      add_histogram(w, "compute_interval_hist", m.compute_intervals);
      add_histogram(w, "wait_interval_hist", m.wait_intervals);
    }
    w.end();
  }
  w.end();
  if (node_of_rank != nullptr) {
    // Per-node aggregates of the per-rank metrics.
    std::uint32_t num_nodes = 0;
    for (const std::uint32_t node : *node_of_rank) {
      num_nodes = std::max(num_nodes, node + 1);
    }
    struct NodeAgg {
      double compute = 0.0, wait = 0.0, spin = 0.0, preempted = 0.0;
      std::size_t ranks = 0;
    };
    std::vector<NodeAgg> nodes(num_nodes);
    for (std::size_t rank = 0;
         rank < std::min(node_of_rank->size(), r.metrics.ranks.size());
         ++rank) {
      NodeAgg& node = nodes[(*node_of_rank)[rank]];
      const mpisim::RankMetrics& m = r.metrics.ranks[rank];
      node.compute += m.compute;
      node.wait += m.wait;
      node.spin += m.spin;
      node.preempted += m.preempted;
      ++node.ranks;
    }
    // Migration counters ride along only when the run actually migrated,
    // so every pre-migration run/3 record stays byte-identical.
    bool any_migrations = false;
    for (const cluster::NodeStats& stats : outcome.node_stats) {
      if (stats.migrations > 0) any_migrations = true;
    }
    w.array("nodes");
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      w.object().add("ranks", nodes[n].ranks, "compute_s", nodes[n].compute,
                     "wait_s", nodes[n].wait, "spin_s", nodes[n].spin,
                     "preempted_s", nodes[n].preempted);
      if (any_migrations && n < outcome.node_stats.size()) {
        const cluster::NodeStats& stats = outcome.node_stats[n];
        w.add("migrations", stats.migrations, "bytes_migrated",
              stats.bytes_migrated, "migration_stall_s",
              stats.migration_stall);
      }
      w.end();
    }
    w.end();
  }
  return w.finish();
}

}  // namespace

void add_sampler_objects(jsonl::Writer& w, const smt::SamplerStats& sampler,
                         const smt::SampleCacheStats& cache) {
  w.object("sampler")
      .add("lookups", sampler.lookups, "misses", sampler.misses,
           "shared_hits", sampler.shared_hits, "local_hits",
           sampler.local_hits)
      .end()
      .object("sample_cache")
      .add("hits", cache.hits, "misses", cache.misses, "inserts",
           cache.inserts, "evictions", cache.evictions, "peak_size",
           cache.peak_size, "hit_rate", cache.hit_rate())
      .end();
}

std::string to_json_record(const RunOutcome& outcome) {
  return json_run_record(outcome, nullptr);
}

std::string to_json_record(const RunOutcome& outcome,
                           const std::vector<std::uint32_t>& node_of_rank) {
  return json_run_record(outcome, &node_of_rank);
}

std::string to_json_batch_record(const BatchResult& batch) {
  // Schema /2: local_hits is now the sampler's own explicit counter. The
  // /1 trailer derived it as lookups - misses - shared_hits, which counts
  // a shared-hit promotion's later local hits and cold local hits as one
  // bucket — wrong whenever a shared cache is attached.
  Writer w("schema", "smtbal.bench.batch/2", "jobs", batch.jobs, "runs",
           batch.runs.size(), "failures", batch.failures);
  add_sampler_objects(w, batch.sampler_stats, batch.cache_stats);
  return w.finish();
}

void write_jsonl(const BatchResult& batch, std::ostream& os) {
  for (const RunOutcome& outcome : batch.runs) {
    os << to_json_record(outcome) << '\n';
  }
  os << to_json_batch_record(batch) << '\n';
}

void write_jsonl_file(const BatchResult& batch, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw SimulationError("cannot open '" + path + "' for writing");
  write_jsonl(batch, file);
  file.flush();
  if (!file) throw SimulationError("failed writing '" + path + "'");
}

std::string describe(const BatchResult& batch) {
  std::ostringstream os;
  os << batch.runs.size() << " runs on " << batch.jobs << " worker"
     << (batch.jobs == 1 ? "" : "s");
  if (batch.failures > 0) os << ", " << batch.failures << " FAILED";
  if (batch.exec_time.count() > 0) {
    os << "; exec time mean " << jsonl::json_num(batch.exec_time.mean())
       << " s (min " << jsonl::json_num(batch.exec_time.min()) << ", max "
       << jsonl::json_num(batch.exec_time.max()) << ')';
  }
  const smt::SampleCacheStats& cache = batch.cache_stats;
  if (cache.hits + cache.misses > 0) {
    os << "; shared sampler cache: " << cache.inserts << " measured, "
       << cache.hits << " hits ("
       << jsonl::json_num(cache.hit_rate() * 100.0) << "% hit rate)";
  }
  return os.str();
}

}  // namespace smtbal::runner
