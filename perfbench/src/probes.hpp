// Layer probes of the traced run: each times one layer's public calls in
// isolation, so the event kernel and the cold sampler can be told apart.
//
//   sampler_probe  cold ThroughputSampler::sample on a seeded, fixed set
//                  of ChipLoads over three chip shapes (2-core SMT2,
//                  2-core SMT4, 4-core SMT2), one sampler per shape and
//                  thread, no shared cache.
//   lookup_probe   warm SampleCache::lookup from `threads` threads on one
//                  shared cache filled with the sampler probe's results.
//   store_probe    ResultStore publish into a fresh journal, open of an
//                  existing journal, and lookup of every entry on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"
#include "traced.hpp"

namespace perfbench {

struct SamplerProbe {
  std::vector<double> measure_ms;  ///< one per cold sample() call
  double cycles_per_s = 0.0;       ///< chip cycles simulated per host second
  double lookup_ns = 0.0;          ///< mean warm lookup, all threads
};

[[nodiscard]] SamplerProbe sampler_probe(std::uint64_t seed, unsigned threads,
                                         SpanLog& spans);

struct StoreEntry {
  std::string canonical;
  smtbal::service::EvalResult result;
};

struct StoreProbe {
  double open_ms = 0.0;     ///< median of the reopen repetitions
  double lookup_us = 0.0;   ///< mean per lookup
  double publish_us = 0.0;  ///< mean per publish (journal append included)
  std::uint64_t lookup_hits = 0;
};

/// Publishes `entries` into a fresh journal at `scratch_path`, then opens
/// `journal` (the scratch one when empty) a few times and looks every
/// entry up on the last one.
[[nodiscard]] StoreProbe store_probe(const std::vector<StoreEntry>& entries,
                                     const std::string& scratch_path,
                                     const std::string& journal,
                                     SpanLog& spans);

}  // namespace perfbench
