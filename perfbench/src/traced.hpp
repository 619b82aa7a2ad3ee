// The traced run's instruments: in-memory spans, a traced batch that goes
// through runner::BatchRunner::run itself with every spec's policy
// factory wrapped in a forwarding decorator (which stamps each run's
// start, end and worker and times its policy calls), and an observed
// re-run of each spec with a counting SimObserver. Everything is recorded
// from outside the simulator, through its public calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "runner/batch.hpp"

namespace perfbench {

/// One timed call. `parent` indexes the same run's span list (-1 = the
/// run's root); `run` is the spec index, -1 for spans outside any run.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t run = -1;
};

/// Everything recorded about one traced run.
struct TracedRun {
  RunDigest digest;
  std::string policy;        ///< BalancePolicy::name(), empty for none
  unsigned worker = 0;  ///< BatchRunner worker, numbered in order of first run
  /// The run inside BatchRunner: from its policy factory call (just
  /// before the engine is built) to the policy's destruction (just after
  /// the engine is gone), so engine construction and teardown count too.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<Span> spans;    ///< run span first, then its policy calls
  std::int64_t decide_ns = 0;  ///< sum of the policy spans
  std::uint64_t epochs = 0;
  std::uint64_t messages = 0;    ///< filled in by observe()
  std::uint64_t actuations = 0;  ///< filled in by observe()
  std::uint64_t migrations = 0;
  std::uint64_t migration_bytes = 0;

  [[nodiscard]] double span_s() const { return seconds_between(start_ns, end_ns); }
  /// Run span minus its policy children: the engine's self time.
  [[nodiscard]] double self_s() const {
    return span_s() - static_cast<double>(decide_ns) * 1e-9;
  }
};

struct TracedBatch {
  std::vector<TracedRun> runs;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  unsigned jobs = 0;

  [[nodiscard]] double wall_s() const { return seconds_between(start_ns, end_ns); }
  [[nodiscard]] std::vector<RunDigest> digests() const;
  /// Sum of run spans over (workers x batch wall).
  [[nodiscard]] double busy_ratio() const;
  /// From the first worker to run out of work to the end of the batch.
  [[nodiscard]] double tail_s() const;
};

/// Runs `specs` through runner::BatchRunner::run on `jobs` workers with
/// `caches` as the domain caches. Every spec gets the forwarding policy
/// decorator, a no-op one where the spec has no policy.
[[nodiscard]] TracedBatch run_traced(
    const std::vector<smtbal::runner::RunSpec>& specs, unsigned jobs,
    DomainCaches& caches);

/// Runs every spec once more on `caches` (meant to be warm) with a
/// counting SimObserver attached, fills in `batch`'s message and
/// actuation counts, and returns the observed runs' digests.
[[nodiscard]] std::vector<RunDigest> observe(
    const std::vector<smtbal::runner::RunSpec>& specs, unsigned jobs,
    DomainCaches& caches, TracedBatch& batch);

/// Spans of the whole traced run, written out as JSONL at exit.
class SpanLog {
 public:
  /// Records a top-level span and returns its index.
  std::size_t add(std::string name, std::int64_t start_ns, std::int64_t end_ns);
  /// Moves a batch's run spans in under the top-level span `parent`.
  void add_batch(TracedBatch& batch, std::size_t parent,
                 const std::string& pass);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// One JSON object per span: id, name, start/end (ns since the first
  /// span), parent id (-1 = root), run id and pass.
  void write(const std::string& path) const;

 private:
  struct Entry {
    Span span;
    std::int64_t parent_id = -1;
    std::string pass;
  };
  std::vector<Entry> spans_;
};

}  // namespace perfbench
