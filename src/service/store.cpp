#include "service/store.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "smt/sampler.hpp"

namespace smtbal::service {

std::uint64_t canonical_key(std::string_view canonical) {
  // The ChipLoad::key() chain mix, word-for-word: seed from the length,
  // one splitmix64 round per 8-byte word (the trailing partial word is
  // zero-padded), and the finishing fold over (word count, length). The
  // canonical text is what disambiguates the 2^-64 residual risk — see
  // ResultStore's collision check.
  const std::size_t words = (canonical.size() + 7) / 8;
  std::uint64_t state = smt::ChipLoad::chain_seed(canonical.size());
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    const std::size_t begin = w * 8;
    const std::size_t count = std::min<std::size_t>(8, canonical.size() - begin);
    std::memcpy(&word, canonical.data() + begin, count);
    state = smt::ChipLoad::chain_mix(state, word);
  }
  return smt::ChipLoad::chain_finish(state, words, canonical.size());
}

void ResultStore::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SMTBAL_REQUIRE(!journal_.is_open(), "ResultStore::open called twice");
  SMTBAL_REQUIRE(entries_.empty(),
                 "ResultStore::open must precede lookups and publishes");

  // Replay the journal, if one exists (a fresh path is not an error).
  const auto load = [&](const jsonl::Record& record) {
    const std::string type = record.string("type");
    if (type != "entry") record.fail("unknown record type '" + type + "'");
    const std::string key_text = record.string("key");
    const std::optional<std::uint64_t> key = jsonl::parse_hex64(key_text);
    if (!key) {
      record.fail("field \"key\" is not a 0x-prefixed 16-digit hex value: '" +
                  key_text + "'");
    }
    Entry entry;
    entry.canonical = record.string("request");
    if (*key != canonical_key(entry.canonical)) {
      record.fail("key " + key_text +
                  " does not re-derive from the stored request (corrupted "
                  "entry)");
    }
    entry.result = {record.number("exec_time"), record.number("imbalance"),
                    record.count("events"), record.count("priority_resets")};
    const auto it = entries_.find(*key);
    if (it != entries_.end() && it->second.canonical != entry.canonical) {
      record.fail("key " + key_text +
                  " already loaded for a different request (corrupted "
                  "journal)");
    }
    if (it == entries_.end()) entries_.emplace(*key, std::move(entry));
    ++stats_.loaded;
  };
  std::ifstream in(path);
  jsonl::for_each_record(in, path, kStoreSchema, load);

  journal_.open(path, std::ios::app);
  if (!journal_) {
    throw SimulationError("cannot open result-store journal '" + path +
                          "' for appending");
  }
}

std::optional<EvalResult> ResultStore::lookup(std::uint64_t key,
                                              std::string_view canonical) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.canonical != canonical) {
    ++stats_.collisions;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second.result;
}

void ResultStore::publish(std::uint64_t key, std::string_view canonical,
                          const EvalResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.canonical != canonical) ++stats_.collisions;
    return;  // first writer wins; a matching re-publish is idempotent
  }
  Entry entry{std::string(canonical), result};
  append_journal(key, entry);
  entries_.emplace(key, std::move(entry));
  ++stats_.inserts;
}

void ResultStore::append_journal(std::uint64_t key, const Entry& entry) {
  if (!journal_.is_open()) return;
  journal_ << jsonl::Writer("schema", kStoreSchema, "type", "entry", "key",
                            jsonl::hex64(key), "request", entry.canonical,
                            "exec_time", entry.result.exec_time, "imbalance",
                            entry.result.imbalance, "events",
                            entry.result.events, "priority_resets",
                            entry.result.priority_resets)
                  .finish()
           << '\n';
  journal_.flush();
}

ResultStore::Stats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace smtbal::service
