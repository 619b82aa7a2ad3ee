// Deterministic JSON result records for batch runs.
//
// One run serialises to one single-line JSON object (JSONL). The per-run
// records are byte-identical for any --jobs value: field order is fixed,
// doubles are printed with round-trip precision, and scheduling-dependent
// data (wall time, sampler hit counters) is deliberately excluded from
// them. Sampler/cache efficiency is surfaced instead by a single trailing
// batch-summary record (schema smtbal.bench.batch/2) — the one
// scheduling-dependent line in the file. To diff two JSONL files produced
// with different worker counts, drop that trailer first (e.g.
// `grep -v '"schema":"smtbal.bench.batch/2"'`).
#pragma once

#include <ostream>
#include <string>

#include "common/jsonl.hpp"
#include "runner/batch.hpp"

namespace smtbal::runner {

/// Serialises one outcome as a single-line JSON object (no trailing
/// newline). Deterministic: identical for any worker count.
[[nodiscard]] std::string to_json_record(const RunOutcome& outcome);

/// Cluster variant (schema smtbal.bench.run/3): same fields as run/2
/// plus a "node" field on every per-rank record and a "nodes" array of
/// per-node aggregates (rank count, compute/wait/spin/preempted sums).
/// `node_of_rank` is the hosting node per global rank, as carried by
/// cluster::ClusterRunResult.
[[nodiscard]] std::string to_json_record(
    const RunOutcome& outcome, const std::vector<std::uint32_t>& node_of_rank);

/// Serialises the batch summary (schema smtbal.bench.batch/2): jobs,
/// run/failure counts and the aggregate SamplerStats / SampleCacheStats
/// (lookups, misses, shared hits, hit rate). Scheduling-dependent —
/// observe cache behaviour across --jobs values with it, never diff it.
[[nodiscard]] std::string to_json_batch_record(const BatchResult& batch);

/// Adds the "sampler":{...} and "sample_cache":{...} objects shared by
/// the smtbal.bench.batch/2 and smtbal.evalresp.batch/1 trailers.
void add_sampler_objects(jsonl::Writer& w, const smt::SamplerStats& sampler,
                         const smt::SampleCacheStats& cache);

/// Writes one record per line, spec order (the BENCH_*.json convention:
/// one JSONL file per bench binary), then the batch-summary record as the
/// final line.
void write_jsonl(const BatchResult& batch, std::ostream& os);

/// write_jsonl to `path`, creating/truncating the file. Throws
/// SimulationError if the file cannot be written.
void write_jsonl_file(const BatchResult& batch, const std::string& path);

/// Human-readable batch summary: jobs, failures, exec-time spread and the
/// shared-cache hit rate. Scheduling-dependent — print it, don't diff it.
[[nodiscard]] std::string describe(const BatchResult& batch);

}  // namespace smtbal::runner
