#include "workloads/trace_replay.hpp"

#include <climits>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <variant>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "isa/kernel.hpp"

namespace smtbal::workloads {

namespace {

using jsonl::Record;

trace::RankState state_of(const Record& record, trace::RankState fallback) {
  if (!record.has("state")) return fallback;
  const std::string name = record.string("state");
  using trace::RankState;
  for (const RankState state :
       {RankState::kInit, RankState::kCompute, RankState::kComm,
        RankState::kStat, RankState::kPreempted}) {
    if (name == trace::to_string(state)) return state;
  }
  record.fail("unknown interval state '" + name + "'");
}

/// Rejects a field outside `known` (which lists the head, schema and
/// type, too), naming the record as `what`: a misspelt optional field
/// would otherwise be ignored and replay as its default.
void check_fields(const Record& record, const std::string& what,
                  std::initializer_list<std::string_view> known) {
  const std::optional<std::string> key = record.unknown_key(known);
  if (!key.has_value()) return;
  std::string listed;
  for (const std::string_view name : known) {
    if (name == "schema" || name == "type") continue;
    if (!listed.empty()) listed += ", ";
    listed += name;
  }
  record.fail("unknown field \"" + *key + "\" in " + what +
              " (known: " + listed + ")");
}

/// A record's common head: schema and type.
jsonl::Writer record(std::string_view type) {
  return jsonl::Writer("schema", kTraceReplaySchema, "type", type);
}

}  // namespace

mpisim::Application parse_trace(std::istream& in, std::string_view source) {
  mpisim::Application app;
  bool have_meta = false;
  const auto parse_one = [&](const Record& record) {
    const std::string type = record.string("type");
    if (type == "meta") {
      if (have_meta) record.fail("duplicate meta record");
      check_fields(record, "the meta record",
                   {"schema", "type", "ranks", "name"});
      const std::uint64_t ranks = record.count("ranks");
      if (ranks == 0) record.fail("meta.ranks must be >= 1");
      app.ranks.resize(ranks);
      if (record.has("name")) app.name = record.string("name");
      have_meta = true;
      return;
    }
    if (type != "interval") record.fail("unknown record type '" + type + "'");
    if (!have_meta) record.fail("interval record before the meta record");
    const std::uint64_t rank = record.count("rank");
    if (rank >= app.ranks.size()) {
      record.fail("rank " + std::to_string(rank) + " out of range [0, " +
                  std::to_string(app.ranks.size()) + ")");
    }
    mpisim::RankProgram& program = app.ranks[rank];
    const std::string kind = record.string("kind");
    const std::string what = "an interval of kind '" + kind + "'";
    if (kind == "compute") {
      check_fields(record, what,
                   {"schema", "type", "rank", "kind", "kernel", "instructions",
                    "state"});
      const std::string kernel_name = record.string("kernel");
      const auto& registry = isa::KernelRegistry::instance();
      if (!registry.contains(kernel_name)) {
        record.fail("unknown kernel '" + kernel_name + "'");
      }
      const double instructions = record.number("instructions");
      if (!(instructions > 0.0)) {
        record.fail("compute.instructions must be > 0");
      }
      program.compute(registry.by_name(kernel_name).id, instructions,
                      state_of(record, trace::RankState::kCompute));
    } else if (kind == "delay") {
      check_fields(record, what,
                   {"schema", "type", "rank", "kind", "duration", "state"});
      const double duration = record.number("duration");
      if (duration < 0.0) record.fail("delay.duration must be >= 0");
      program.delay(duration, state_of(record, trace::RankState::kStat));
    } else if (kind == "barrier") {
      check_fields(record, what, {"schema", "type", "rank", "kind"});
      program.barrier();
    } else if (kind == "allreduce") {
      check_fields(record, what, {"schema", "type", "rank", "kind", "bytes"});
      program.allreduce(record.has("bytes") ? record.count("bytes") : 8);
    } else if (kind == "send" || kind == "recv") {
      check_fields(record, what,
                   {"schema", "type", "rank", "kind", "peer", "bytes", "tag"});
      const std::uint64_t peer = record.count("peer");
      if (peer >= app.ranks.size()) {
        record.fail(kind + ".peer " + std::to_string(peer) +
                    " out of range [0, " + std::to_string(app.ranks.size()) +
                    ")");
      }
      const std::uint64_t bytes = record.count("bytes");
      const double tag = record.has("tag") ? record.number("tag") : 0.0;
      if (!(std::abs(tag) <= INT_MAX) || tag != std::trunc(tag)) {
        record.fail(kind + ".tag must be an integer");
      }
      const auto peer_id = RankId{static_cast<std::uint32_t>(peer)};
      if (kind == "send") {
        program.send(peer_id, bytes, static_cast<int>(tag));
      } else {
        program.recv(peer_id, bytes, static_cast<int>(tag));
      }
    } else if (kind == "waitall") {
      check_fields(record, what, {"schema", "type", "rank", "kind"});
      program.wait_all();
    } else {
      record.fail("unknown interval kind '" + kind + "'");
    }
  };
  jsonl::for_each_record(in, source, kTraceReplaySchema, parse_one);
  if (!have_meta) {
    throw InvalidArgument(std::string(source) +
                          ": empty trace (no meta record)");
  }
  try {
    app.validate();
  } catch (const std::exception& e) {
    throw InvalidArgument(std::string(source) +
                          ": trace compiles to an invalid application: " +
                          e.what());
  }
  return app;
}

mpisim::Application parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot open trace file '" + path + "'");
  }
  return parse_trace(in, path);
}

std::string emit_trace(const mpisim::Application& app) {
  std::ostringstream os;
  os << record("meta").add("ranks", app.ranks.size(), "name", app.name).finish()
     << '\n';
  const auto& registry = isa::KernelRegistry::instance();
  for (std::size_t r = 0; r < app.ranks.size(); ++r) {
    for (const mpisim::Phase& phase : app.ranks[r].phases) {
      jsonl::Writer w = record("interval");
      w.add("rank", r);
      std::visit(
          [&](const auto& p) {
            using P = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<P, mpisim::ComputePhase>) {
              w.add("kind", "compute", "kernel", registry.get(p.kernel).name(),
                    "instructions", p.instructions);
              if (p.traced_as != trace::RankState::kCompute) {
                w.add("state", trace::to_string(p.traced_as));
              }
            } else if constexpr (std::is_same_v<P, mpisim::DelayPhase>) {
              w.add("kind", "delay", "duration", p.duration);
              if (p.traced_as != trace::RankState::kStat) {
                w.add("state", trace::to_string(p.traced_as));
              }
            } else if constexpr (std::is_same_v<P, mpisim::BarrierPhase>) {
              w.add("kind", "barrier");
            } else if constexpr (std::is_same_v<P, mpisim::AllreducePhase>) {
              w.add("kind", "allreduce", "bytes", p.bytes);
            } else if constexpr (std::is_same_v<P, mpisim::SendPhase>) {
              w.add("kind", "send", "peer", p.peer.value(), "bytes", p.bytes,
                    "tag", p.tag);
            } else if constexpr (std::is_same_v<P, mpisim::RecvPhase>) {
              w.add("kind", "recv", "peer", p.peer.value(), "bytes", p.bytes,
                    "tag", p.tag);
            } else {
              static_assert(std::is_same_v<P, mpisim::WaitAllPhase>);
              w.add("kind", "waitall");
            }
          },
          phase);
      os << w.finish() << '\n';
    }
  }
  return os.str();
}

std::string emit_trace(const trace::Tracer& tracer, std::string_view name) {
  std::ostringstream os;
  os << record("meta").add("ranks", tracer.num_ranks(), "name", name).finish()
     << '\n';
  for (std::size_t r = 0; r < tracer.num_ranks(); ++r) {
    const auto rank = RankId{static_cast<std::uint32_t>(r)};
    for (const trace::Interval& interval : tracer.timeline(rank)) {
      const double duration = interval.end - interval.begin;
      if (duration <= 0.0) continue;
      switch (interval.state) {
        case trace::RankState::kCompute:
        case trace::RankState::kComm:
        case trace::RankState::kStat:
        case trace::RankState::kPreempted:
          break;
        default:
          continue;  // waiting/idle is re-derived by the replay
      }
      os << record("interval")
                .add("rank", r, "kind", "delay", "duration", duration, "state",
                     trace::to_string(interval.state))
                .finish()
         << '\n';
    }
    os << record("interval").add("rank", r, "kind", "barrier").finish()
       << '\n';
  }
  return os.str();
}

}  // namespace smtbal::workloads
