#include "traced.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/engine.hpp"
#include "mpisim/engine.hpp"
#include "mpisim/observer.hpp"

namespace perfbench {

namespace {

using namespace smtbal;

/// Forwards to the wrapped policy (if any) and records each on_start /
/// on_epoch call as a child span of the run. BatchRunner builds it just
/// before the run's engine and destroys it just after, so its lifetime
/// is the run's span.
class TracedPolicy final : public mpisim::BalancePolicy {
 public:
  TracedPolicy(std::unique_ptr<mpisim::BalancePolicy> inner, TracedRun& run)
      : inner_(std::move(inner)), run_(run) {}
  ~TracedPolicy() override { run_.end_ns = now_ns(); }
  TracedPolicy(const TracedPolicy&) = delete;
  TracedPolicy& operator=(const TracedPolicy&) = delete;

  [[nodiscard]] std::string_view name() const override {
    return inner_ ? inner_->name() : "none";
  }

  void on_start(mpisim::EngineControl& control) override {
    if (!inner_) return;
    const std::int64_t start = now_ns();
    inner_->on_start(control);
    record("BalancePolicy::on_start", start);
  }

  void on_epoch(mpisim::EngineControl& control,
                const mpisim::EpochReport& report) override {
    if (!inner_) return;
    const std::int64_t start = now_ns();
    inner_->on_epoch(control, report);
    record("BalancePolicy::on_epoch", start);
    ++run_.epochs;
  }

 private:
  void record(const char* name, std::int64_t start) {
    const std::int64_t end = now_ns();
    run_.spans.push_back(Span{name, start, end, 0, -1});
    run_.decide_ns += end - start;
  }

  std::unique_ptr<mpisim::BalancePolicy> inner_;
  TracedRun& run_;
};

/// Numbers BatchRunner's worker threads in the order they start a run.
class WorkerIds {
 public:
  unsigned of_this_thread() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, added] = ids_.try_emplace(
        std::this_thread::get_id(), static_cast<unsigned>(ids_.size()));
    return it->second;
  }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, unsigned> ids_;
};

/// Counts messages and actuations (priority, placement and migration
/// callbacks) on the run's observer bus.
class CountingObserver final : public mpisim::SimObserver {
 public:
  explicit CountingObserver(TracedRun& run) : run_(run) {}

  void on_event(const mpisim::Event& event) override {
    if (event.kind == mpisim::EventKind::kMsgArrival) ++run_.messages;
  }
  void on_priority_change(RankId, int, int, SimTime) override {
    ++run_.actuations;
  }
  void on_placement_change(RankId, CpuId, CpuId, SimTime) override {
    ++run_.actuations;
  }
  void on_rank_migration(RankId, std::uint32_t, std::uint32_t,
                         SimTime) override {
    ++run_.actuations;
  }

 private:
  TracedRun& run_;
};

RunDigest digest_of(const std::string& label, const mpisim::RunResult& result) {
  RunDigest digest;
  digest.label = label;
  digest.ok = true;
  digest.exec_time = result.exec_time;
  digest.imbalance = result.imbalance;
  digest.events = result.events;
  digest.trace_intervals = trace_intervals(result);
  return digest;
}

}  // namespace

TracedBatch run_traced(const std::vector<runner::RunSpec>& specs, unsigned jobs,
                       DomainCaches& caches) {
  TracedBatch batch;
  batch.runs.resize(specs.size());
  WorkerIds workers;
  std::vector<runner::RunSpec> wrapped = specs;
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    wrapped[i].make_policy = [&batch, &workers, i,
                              inner_factory = specs[i].make_policy]()
        -> std::unique_ptr<mpisim::BalancePolicy> {
      TracedRun& run = batch.runs[i];
      run.start_ns = now_ns();
      run.worker = workers.of_this_thread();
      std::unique_ptr<mpisim::BalancePolicy> inner;
      if (inner_factory) inner = inner_factory();
      if (inner) run.policy = std::string(inner->name());
      return std::make_unique<TracedPolicy>(std::move(inner), run);
    };
  }

  batch.start_ns = now_ns();
  const runner::BatchResult result =
      runner::BatchRunner(caches.batch_options(jobs)).run(wrapped);
  batch.end_ns = now_ns();
  batch.jobs = result.jobs;

  const std::vector<RunDigest> digests = digests_of(result);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TracedRun& run = batch.runs[i];
    run.digest = digests[i];
    for (const cluster::NodeStats& node : result.runs[i].node_stats) {
      run.migrations += node.migrations;
      run.migration_bytes += node.bytes_migrated;
    }
    // A run that failed before BatchRunner built its policy has no stamps.
    if (run.start_ns == 0) run.start_ns = batch.start_ns;
    if (run.end_ns == 0) run.end_ns = run.start_ns;
    const char* name = specs[i].cluster_config ? "ClusterEngine::run" : "Engine::run";
    run.spans.insert(run.spans.begin(),
                     Span{name, run.start_ns, run.end_ns, -1, -1});
    for (Span& span : run.spans) span.run = static_cast<std::int64_t>(i);
  }
  return batch;
}

std::vector<RunDigest> observe(const std::vector<runner::RunSpec>& specs,
                               unsigned jobs, DomainCaches& caches,
                               TracedBatch& batch) {
  std::vector<RunDigest> digests(specs.size());
  runner::parallel_for_stealing(
      runner::resolve_jobs(jobs, specs.size()), specs.size(),
      [&](std::size_t i, unsigned) {
        const runner::RunSpec& spec = specs[i];
        TracedRun& run = batch.runs[i];
        RunDigest& digest = digests[i];
        run.messages = 0;
        run.actuations = 0;
        try {
          const mpisim::EngineConfig& node =
              spec.cluster_config ? spec.cluster_config->node : spec.config;
          auto sampler = std::make_shared<smt::ThroughputSampler>(node.chip,
                                                                  node.sampler);
          sampler->attach_shared_cache(caches.get(node.chip, node.sampler));
          std::unique_ptr<mpisim::BalancePolicy> policy;
          if (spec.make_policy) policy = spec.make_policy();
          CountingObserver observer(run);
          mpisim::RunResult result;
          if (spec.cluster_config) {
            cluster::ClusterEngine engine(spec.app, *spec.cluster_placement,
                                          *spec.cluster_config, sampler);
            if (policy != nullptr) engine.set_policy(policy.get());
            engine.add_observer(&observer);
            result = engine.run().flat;
          } else {
            mpisim::Engine engine(spec.app, spec.placement, spec.config, sampler);
            if (policy != nullptr) engine.set_policy(policy.get());
            engine.add_observer(&observer);
            result = engine.run();
          }
          digest = digest_of(spec.label, result);
        } catch (const std::exception& e) {
          digest.label = spec.label;
          digest.error = e.what();
        }
      });
  return digests;
}

std::vector<RunDigest> TracedBatch::digests() const {
  std::vector<RunDigest> out;
  out.reserve(runs.size());
  for (const TracedRun& run : runs) out.push_back(run.digest);
  return out;
}

double TracedBatch::busy_ratio() const {
  double busy = 0.0;
  for (const TracedRun& run : runs) busy += run.span_s();
  const double capacity = static_cast<double>(jobs) * wall_s();
  return capacity > 0.0 ? busy / capacity : 0.0;
}

double TracedBatch::tail_s() const {
  std::vector<std::int64_t> last_end(jobs, start_ns);
  for (const TracedRun& run : runs) {
    last_end[run.worker] = std::max(last_end[run.worker], run.end_ns);
  }
  const std::int64_t first_idle =
      *std::min_element(last_end.begin(), last_end.end());
  return seconds_between(first_idle, end_ns);
}

std::size_t SpanLog::add(std::string name, std::int64_t start_ns,
                         std::int64_t end_ns) {
  spans_.push_back(Entry{Span{std::move(name), start_ns, end_ns, -1, -1}, -1, ""});
  return spans_.size() - 1;
}

void SpanLog::add_batch(TracedBatch& batch, std::size_t parent,
                        const std::string& pass) {
  for (TracedRun& run : batch.runs) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span& span : run.spans) {
      const std::int64_t parent_id =
          span.parent < 0 ? static_cast<std::int64_t>(parent) : base + span.parent;
      spans_.push_back(Entry{std::move(span), parent_id, pass});
    }
    run.spans.clear();
  }
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  std::int64_t origin = 0;
  for (const Entry& entry : spans_) {
    if (origin == 0 || entry.span.start_ns < origin) origin = entry.span.start_ns;
  }
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Entry& e = spans_[id];
    out << "{\"id\":" << id << ",\"name\":\"" << e.span.name
        << "\",\"start_ns\":" << e.span.start_ns - origin
        << ",\"end_ns\":" << e.span.end_ns - origin
        << ",\"parent\":" << e.parent_id << ",\"run\":" << e.span.run
        << ",\"pass\":\"" << e.pass << "\"}\n";
  }
}

}  // namespace perfbench
