// The service-openloop workload: one generator thread sends EvalRequests
// to a service::EvalService open-loop, on a Poisson schedule drawn from
// the seed, while a collector thread stamps each future as it becomes
// ready; or closed-loop, as fast as the service answers. Requests are a Zipf-repeated mix over a fixed universe of
// scenario x policy pairs; a minority go to the interactive lane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/batch.hpp"
#include "service/request.hpp"
#include "service/service.hpp"

namespace perfbench {

/// One distinct request of the universe.
struct UniverseEntry {
  std::string scenario;  ///< simcheck ScenarioSpec one-liner
  std::string policy;    ///< policy::Registry spec or "none"
};

/// The fixed request universe (independent of the seed).
[[nodiscard]] std::vector<UniverseEntry> request_universe();

/// The service's canonical request text for `entry`
/// ("scenario{<canonical spec>} policy{<policy>}").
[[nodiscard]] std::string canonical_request(const UniverseEntry& entry);

/// `entry` as a BatchRunner spec, built the way the service builds it.
[[nodiscard]] smtbal::runner::RunSpec direct_spec(const UniverseEntry& entry,
                                                  std::string label);

struct RequestRecord {
  std::size_t entry = 0;  ///< universe index
  smtbal::service::Lane lane = smtbal::service::Lane::kBatch;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  smtbal::service::EvalResponse response;

  [[nodiscard]] bool ok() const {
    return response.status == smtbal::service::Status::kOk;
  }
  [[nodiscard]] bool rejected() const {
    return response.status == smtbal::service::Status::kRejected;
  }
  /// Milliseconds from the due time; infinite for a refused request.
  [[nodiscard]] double latency_ms() const;
};

struct Phase {
  double rate = 0.0;  ///< offered (saturated: answered) requests per second
  std::vector<RequestRecord> records;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last completion
  double cpu_s = 0.0;  ///< process CPU over a saturated phase
};

/// Draws `count` requests at `rate` (exponential gaps), sends them to
/// `service` open-loop and waits for every answer.
[[nodiscard]] Phase run_phase(smtbal::service::EvalService& service,
                              const std::vector<UniverseEntry>& universe,
                              double rate, std::size_t count,
                              std::uint64_t seed, const std::string& tag);

/// Sends `count` requests of the same seeded mix closed-loop: as fast as
/// the service answers, never more than `window` outstanding (the
/// generator waits for the oldest). `rate` is the answered rate; each
/// request's due time is its send time.
[[nodiscard]] Phase run_saturated(smtbal::service::EvalService& service,
                                  const std::vector<UniverseEntry>& universe,
                                  std::size_t count, std::size_t window,
                                  std::uint64_t seed, const std::string& tag);

}  // namespace perfbench
