#include "service/request.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/jsonl.hpp"

namespace smtbal::service {

namespace {

using jsonl::Record;

StatSelection parse_stats(const Record& record) {
  StatSelection stats{false, false, false, false};
  std::istringstream items(record.string("stats"));
  bool any = false;
  for (std::string item; std::getline(items, item, ',');) {
    if (item == "exec_time") {
      stats.exec_time = true;
    } else if (item == "imbalance") {
      stats.imbalance = true;
    } else if (item == "events") {
      stats.events = true;
    } else if (item == "priority_resets") {
      stats.priority_resets = true;
    } else {
      record.fail("unknown stat '" + item +
                  "' (known: exec_time, imbalance, events, priority_resets)");
    }
    any = true;
  }
  if (!any) record.fail("field \"stats\" must name at least one stat");
  return stats;
}

}  // namespace

std::string_view to_string(Lane lane) {
  return lane == Lane::kInteractive ? "interactive" : "batch";
}

std::string_view to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kRejected: return "rejected";
  }
  return "error";
}

std::vector<EvalRequest> parse_requests(std::istream& in,
                                        std::string_view source) {
  std::vector<EvalRequest> requests;
  std::set<std::string> seen_ids;
  bool have_meta = false;
  const auto parse_one = [&](const Record& record) {
    const std::string type = record.string("type");
    if (type == "meta") {
      if (have_meta) record.fail("duplicate meta record");
      if (const auto key = record.unknown_key({"schema", "type", "name"})) {
        record.fail("unknown field \"" + *key +
                    "\" in the meta record (known: name)");
      }
      have_meta = true;
      return;
    }
    if (type != "eval") record.fail("unknown record type '" + type + "'");
    if (!have_meta) record.fail("eval record before the meta record");
    if (const auto key = record.unknown_key({"schema", "type", "id", "scenario",
                                             "trace", "policy", "lane",
                                             "stats", "cores", "smt"})) {
      record.fail("unknown field \"" + *key +
                  "\" in an eval record (known: id, scenario, trace, policy, "
                  "lane, stats, cores, smt)");
    }
    EvalRequest request;
    request.id = record.string("id");
    if (request.id.empty()) record.fail("field \"id\" must not be empty");
    if (!seen_ids.insert(request.id).second) {
      record.fail("duplicate request id '" + request.id + "'");
    }
    if (record.has("scenario") == record.has("trace")) {
      record.fail(
          "an eval record needs exactly one of \"scenario\" and \"trace\"");
    }
    if (record.has("scenario")) {
      request.scenario = record.string("scenario");
      if (record.has("cores") || record.has("smt")) {
        record.fail(
            "\"cores\"/\"smt\" apply to trace requests only (a scenario "
            "carries its own shape)");
      }
    } else {
      request.trace_path = record.string("trace");
      if (request.trace_path.empty()) {
        record.fail("field \"trace\" must not be empty");
      }
      if (record.has("cores")) {
        const std::uint64_t cores = record.count("cores");
        if (cores > UINT32_MAX) record.fail("field \"cores\" is out of range");
        request.cores = static_cast<std::uint32_t>(cores);
      }
      if (record.has("smt")) {
        const std::uint64_t smt = record.count("smt");
        if (smt != 2 && smt != 4) record.fail("field \"smt\" must be 2 or 4");
        request.smt = static_cast<std::uint32_t>(smt);
      }
    }
    if (record.has("policy")) {
      request.policy = record.string("policy");
      if (request.policy.empty()) {
        record.fail(
            "field \"policy\" must not be empty (use \"none\" for the "
            "no-policy baseline)");
      }
    }
    if (record.has("lane")) {
      const std::string lane = record.string("lane");
      if (lane == "interactive") {
        request.lane = Lane::kInteractive;
      } else if (lane == "batch") {
        request.lane = Lane::kBatch;
      } else {
        record.fail("unknown lane '" + lane +
                    "' (expected interactive or batch)");
      }
    }
    if (record.has("stats")) request.stats = parse_stats(record);
    requests.push_back(std::move(request));
  };
  jsonl::for_each_record(in, source, kEvalRequestSchema, parse_one);
  if (!have_meta) {
    throw InvalidArgument(std::string(source) +
                          ": empty request feed (no meta record)");
  }
  return requests;
}

std::vector<EvalRequest> parse_requests_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot open request file '" + path + "'");
  }
  return parse_requests(in, path);
}

std::string to_json_record(const EvalResponse& response) {
  jsonl::Writer w("schema", kEvalResponseSchema, "type", "result", "id",
                  response.id, "status", to_string(response.status));
  if (response.status != Status::kOk) {
    return w.add("error", response.error).finish();
  }
  w.add("key", jsonl::hex64(response.key));
  if (response.stats.exec_time) w.add("exec_time", response.result.exec_time);
  if (response.stats.imbalance) w.add("imbalance", response.result.imbalance);
  if (response.stats.events) w.add("events", response.result.events);
  if (response.stats.priority_resets) {
    w.add("priority_resets", response.result.priority_resets);
  }
  return w.finish();
}

}  // namespace smtbal::service
