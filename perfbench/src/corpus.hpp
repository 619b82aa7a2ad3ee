// The benchmark's workloads as BatchRunner specs.
//
//   sweep_cold_specs   the paper's Table IV/V/VI cases plus a
//                      tournament-style corpus (every registry entrant and
//                      "none", crossed with flat, fuzzed, cluster,
//                      heterogeneous and migrate scenarios). The seed
//                      drives the fuzzed scenarios.
//   horizon_specs      long-horizon runs of the same entrants: skewed and
//                      time-varying clusters of default 2-core chips, a
//                      ring stencil and the paper apps at many
//                      iterations. Fixed: its throughput depends on the
//                      order of the specs (the batch's tail), so no seed
//                      varies it.
//
// Labels are "<scenario> | <entrant>"; the paper cases are labelled
// "paper/table<N>/<case>" so the result checks can find them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/batch.hpp"

namespace perfbench {

/// "none" plus every policy::Registry entry, in registry order.
[[nodiscard]] std::vector<std::string> entrants();

/// The Table IV, V and VI cases exactly as bench_table{4,5,6} run them.
[[nodiscard]] std::vector<smtbal::runner::RunSpec> paper_specs();

[[nodiscard]] std::vector<smtbal::runner::RunSpec> sweep_cold_specs(
    std::uint64_t seed);

[[nodiscard]] std::vector<smtbal::runner::RunSpec> horizon_specs();

}  // namespace perfbench
