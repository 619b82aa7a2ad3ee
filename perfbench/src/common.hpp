// Shared helpers of the benchmark driver: clocks, process counters,
// percentiles, run digests, the per-domain sampler caches the benchmark
// hands to BatchRunner, and a minimal JSON object writer for the one
// result line each subcommand prints.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonl.hpp"
#include "runner/batch.hpp"
#include "smt/sampler.hpp"

namespace perfbench {

using namespace smtbal;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// User + system CPU seconds of the whole process (every thread).
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// High-water resident set of the process, MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Exact text of a double (C99 hex float), for bit-exact digests.
inline std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

/// The simulated outputs of one run that every check compares.
struct RunDigest {
  std::string label;
  bool ok = false;
  std::string error;
  double exec_time = 0.0;
  double imbalance = 0.0;
  std::uint64_t events = 0;
  std::uint64_t trace_intervals = 0;

  [[nodiscard]] bool same_outputs(const RunDigest& other) const {
    return label == other.label && ok == other.ok &&
           exec_time == other.exec_time && imbalance == other.imbalance &&
           events == other.events;
  }
};

inline std::uint64_t trace_intervals(const mpisim::RunResult& result) {
  std::uint64_t count = 0;
  for (std::size_t r = 0; r < result.trace.num_ranks(); ++r) {
    count += result.trace.timeline(RankId{static_cast<std::uint32_t>(r)}).size();
  }
  return count;
}

inline std::vector<RunDigest> digests_of(const runner::BatchResult& batch) {
  std::vector<RunDigest> digests;
  digests.reserve(batch.runs.size());
  for (const runner::RunOutcome& out : batch.runs) {
    RunDigest digest;
    digest.label = out.label;
    digest.ok = out.ok;
    digest.error = out.error;
    if (out.ok) {
      digest.exec_time = out.result->exec_time;
      digest.imbalance = out.result->imbalance;
      digest.events = out.result->events;
      digest.trace_intervals = trace_intervals(*out.result);
    }
    digests.push_back(std::move(digest));
  }
  return digests;
}

/// Labels of the runs whose outputs differ between two passes of the same
/// specs (empty = bit-identical).
inline std::vector<std::string> mismatches(const std::vector<RunDigest>& a,
                                           const std::vector<RunDigest>& b) {
  std::vector<std::string> bad;
  if (a.size() != b.size()) {
    bad.push_back("run count " + std::to_string(a.size()) + " vs " +
                  std::to_string(b.size()));
    return bad;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_outputs(b[i])) bad.push_back(a[i].label);
  }
  return bad;
}

/// One SampleCache per exact (ChipConfig, Options) pair — BatchRunner's
/// own sampler-domain rule — so the benchmark sees every cache a batch
/// uses, including the one ClusterEngine's per-shape node samplers
/// attach to.
class DomainCaches {
 public:
  std::shared_ptr<smt::SampleCache> get(
      const smt::ChipConfig& chip,
      const smt::ThroughputSampler::Options& options) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Domain& domain : domains_) {
      if (domain.chip == chip && domain.options == options) return domain.cache;
    }
    auto cache = std::make_shared<smt::SampleCache>();
    domains_.push_back(Domain{chip, options, cache});
    return cache;
  }

  /// Counters summed over every domain cache.
  [[nodiscard]] smt::SampleCacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    smt::SampleCacheStats total;
    for (const Domain& domain : domains_) {
      const smt::SampleCacheStats s = domain.cache->stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.inserts += s.inserts;
      total.divergent += s.divergent;
    }
    return total;
  }

  [[nodiscard]] runner::BatchOptions batch_options(unsigned jobs) {
    runner::BatchOptions options;
    options.jobs = jobs;
    options.cache_provider = [this](const smt::ChipConfig& chip,
                                    const smt::ThroughputSampler::Options& o) {
      return get(chip, o);
    };
    return options;
  }

 private:
  struct Domain {
    smt::ChipConfig chip;
    smt::ThroughputSampler::Options options;
    std::shared_ptr<smt::SampleCache> cache;
  };
  mutable std::mutex mutex_;
  std::vector<Domain> domains_;
};

/// Builds one flat JSON object, field by field.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    return raw(key, std::isfinite(value) ? jsonl::json_num(value) : "null");
  }
  JsonObject& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ",") << '"' << key << "\":" << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

inline std::string json_digests(const std::vector<RunDigest>& digests) {
  std::string out = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const RunDigest& d = digests[i];
    if (i) out += ',';
    out += "[\"" + jsonl::json_escape(d.label) + "\"," +
           (d.ok ? "true" : "false") + ",\"" + hex(d.exec_time) + "\",\"" +
           hex(d.imbalance) + "\"," + std::to_string(d.events) + "," +
           jsonl::json_num(d.exec_time) + ",\"" + jsonl::json_escape(d.error) +
           "\"]";
  }
  return out + "]";
}

inline std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += jsonl::json_escape(values[i]);
    out += '"';
  }
  return out + "]";
}

}  // namespace perfbench
