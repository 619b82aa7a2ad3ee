#include "openloop.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "core/static_policy.hpp"
#include "policy/registry.hpp"
#include "simcheck/scenario.hpp"

namespace perfbench {

namespace {

using namespace smtbal;

constexpr double kZipfExponent = 1.1;
constexpr double kInteractiveShare = 0.2;
/// Longest the collector blocks on the oldest outstanding future before
/// re-polling the others: the resolution of every completion stamp.
constexpr auto kCollectorPoll = std::chrono::microseconds(200);

/// Zipf popularity over the universe: entry r (0-based) is drawn with
/// weight 1 / (r + 1)^kZipfExponent. The ranking is fixed so that every
/// seed repeats the same entries about equally often; the seed drives the
/// draws, the arrival gaps and the lanes.
class Popularity {
 public:
  explicit Popularity(std::size_t size) {
    double sum = 0.0;
    for (std::size_t r = 0; r < size; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative_.push_back(sum);
    }
  }

  std::size_t draw(std::mt19937_64& rng) const {
    const double u = std::generate_canonical<double, 64>(rng) * cumulative_.back();
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min<std::size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

struct Pending {
  std::size_t index = 0;  ///< into Phase::records
  std::future<service::EvalResponse> future;
};

/// Stamps each future when it becomes ready (out of order, to within
/// kCollectorPoll), until the generator is done and nothing is pending.
class Collector {
 public:
  explicit Collector(std::vector<RequestRecord>& records)
      : records_(records), thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::size_t index, std::future<service::EvalResponse> future) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      incoming_.push_back(Pending{index, std::move(future)});
    }
    wake_.notify_one();
  }

  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::list<Pending> outstanding;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (outstanding.empty()) {
          wake_.wait(lock, [&] { return done_ || !incoming_.empty(); });
        }
        while (!incoming_.empty()) {
          outstanding.push_back(std::move(incoming_.front()));
          incoming_.pop_front();
        }
        if (outstanding.empty() && done_) return;
      }
      if (outstanding.empty()) continue;
      outstanding.front().future.wait_for(kCollectorPoll);
      const std::int64_t now = now_ns();
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          RequestRecord& record = records_[it->index];
          record.done_ns = now;
          record.response = it->future.get();
          it = outstanding.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  std::vector<RequestRecord>& records_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Pending> incoming_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

std::vector<UniverseEntry> request_universe() {
  // One chip shape (2-core SMT2, flat or per node), so every evaluation
  // shares the service's one sampler domain.
  const std::vector<std::string> scenarios = {
      "seed=11 ranks=4 cores=2 blocks=2",
      "seed=12 ranks=4 cores=2 blocks=3 prios=1",
      "seed=13 ranks=4 cores=2 blocks=2 family=1",
      "seed=14 ranks=4 cores=2 blocks=2 family=2",
      "seed=15 ranks=4 cores=2 blocks=2 family=3",
      "seed=16 ranks=4 nodes=2 cores=2 blocks=2 migrate=1",
  };
  const std::vector<std::string> policies = {
      "none",        "static:uniform=5", "dynamic",
      "ilp-pairing", "allocation",       "two-level",
      "budget-redistribution",           "repartition"};
  std::vector<UniverseEntry> universe;
  for (const std::string& scenario : scenarios) {
    for (const std::string& policy : policies) {
      universe.push_back(UniverseEntry{scenario, policy});
    }
  }
  return universe;
}

std::string canonical_request(const UniverseEntry& entry) {
  return "scenario{" +
         simcheck::canonical_spec_string(simcheck::parse_spec_string(entry.scenario)) +
         "} policy{" + entry.policy + "}";
}

runner::RunSpec direct_spec(const UniverseEntry& entry, std::string label) {
  auto scenario = std::make_shared<const simcheck::Scenario>(
      simcheck::build_scenario(simcheck::parse_spec_string(entry.scenario)));
  const bool clustered = scenario->cluster_config.num_nodes > 1;
  runner::RunSpec spec;
  spec.label = std::move(label);
  spec.app = scenario->app;
  spec.placement = scenario->placement;
  spec.config = scenario->config;
  if (clustered) {
    spec.cluster_placement = scenario->cluster_placement;
    spec.cluster_config = scenario->cluster_config;
  }
  spec.make_policy = [scenario, clustered, policy = entry.policy]()
      -> std::unique_ptr<mpisim::BalancePolicy> {
    if (policy == "none") {
      if (scenario->priorities.empty()) return nullptr;
      return std::make_unique<core::StaticPriorityPolicy>(scenario->priorities);
    }
    policy::PolicyContext context;
    context.num_ranks = scenario->app.size();
    context.threads_per_core =
        (clustered ? scenario->cluster_config.node : scenario->config)
            .chip.threads_per_core();
    context.placement = clustered ? &scenario->cluster_placement.within
                                  : &scenario->placement;
    context.cluster = clustered ? &scenario->cluster_placement : nullptr;
    return policy::Registry::instance().make(policy, context);
  };
  return spec;
}

double RequestRecord::latency_ms() const {
  if (rejected()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(done_ns - due_ns) * 1e-6;
}

namespace {

/// The seeded part of a phase: each request's entry, lane and due time
/// (seconds after the phase starts, at `rate`).
std::vector<RequestRecord> draw_requests(std::size_t universe_size, double rate,
                                         std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Popularity pop(universe_size);
  std::exponential_distribution<double> gap(rate);
  std::vector<RequestRecord> records(count);
  double offset_s = 0.0;
  for (RequestRecord& record : records) {
    offset_s += gap(rng);
    record.entry = pop.draw(rng);
    record.lane = std::generate_canonical<double, 64>(rng) < kInteractiveShare
                      ? service::Lane::kInteractive
                      : service::Lane::kBatch;
    record.due_ns = static_cast<std::int64_t>(offset_s * 1e9);
  }
  return records;
}

service::EvalRequest request_of(const std::vector<UniverseEntry>& universe,
                                const RequestRecord& record, std::string id) {
  service::EvalRequest request;
  request.id = std::move(id);
  request.scenario = universe[record.entry].scenario;
  request.policy = universe[record.entry].policy;
  request.lane = record.lane;
  return request;
}

}  // namespace

Phase run_phase(service::EvalService& service,
                const std::vector<UniverseEntry>& universe, double rate,
                std::size_t count, std::uint64_t seed, const std::string& tag) {
  Phase phase;
  phase.rate = rate;
  phase.records = draw_requests(universe.size(), rate, count, seed);

  phase.start_ns = now_ns();
  for (RequestRecord& record : phase.records) record.due_ns += phase.start_ns;
  {
    Collector collector(phase.records);
    for (std::size_t i = 0; i < count; ++i) {
      RequestRecord& record = phase.records[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(record.due_ns)));
      service::EvalRequest request =
          request_of(universe, record, tag + "-" + std::to_string(i));
      record.sent_ns = now_ns();
      collector.push(i, service.submit(std::move(request)));
    }
    collector.finish();
  }
  for (const RequestRecord& record : phase.records) {
    phase.end_ns = std::max(phase.end_ns, record.done_ns);
  }
  return phase;
}

Phase run_saturated(service::EvalService& service,
                    const std::vector<UniverseEntry>& universe, std::size_t count,
                    std::size_t window, std::uint64_t seed, const std::string& tag) {
  Phase phase;
  phase.records = draw_requests(universe.size(), 1.0, count, seed);
  std::deque<Pending> outstanding;
  const auto collect_oldest = [&] {
    RequestRecord& record = phase.records[outstanding.front().index];
    record.response = outstanding.front().future.get();
    record.done_ns = now_ns();
    outstanding.pop_front();
  };
  const double cpu_start = process_cpu_s();
  phase.start_ns = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    if (outstanding.size() >= window) collect_oldest();
    RequestRecord& record = phase.records[i];
    service::EvalRequest request =
        request_of(universe, record, tag + "-" + std::to_string(i));
    record.sent_ns = now_ns();
    record.due_ns = record.sent_ns;
    outstanding.push_back(Pending{i, service.submit(std::move(request))});
  }
  while (!outstanding.empty()) collect_oldest();
  phase.end_ns = now_ns();
  phase.cpu_s = process_cpu_s() - cpu_start;
  phase.rate = static_cast<double>(count) / seconds_between(phase.start_ns, phase.end_ns);
  return phase;
}

}  // namespace perfbench
