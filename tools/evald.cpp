// evald: the simulation-evaluation daemon front-end.
//
// Reads a smtbal.evalreq/1 feed (stdin or --requests FILE), pushes every
// request through service::EvalService, and writes smtbal.evalresp/1
// responses (stdout or --responses FILE) in request order: one meta
// record, one result record per request, then the scheduling-dependent
// smtbal.evalresp.batch/1 trailer. The result records are byte-identical
// for any --workers value; to diff two response files drop the trailer
// first (grep -v '"schema":"smtbal.evalresp.batch/1"').
//
//   $ ./evald --requests reqs.jsonl --workers 8 --store results.jsonl
//   $ cat reqs.jsonl | ./evald > resps.jsonl
//
//   --requests FILE   request feed ('-' = stdin, the default)
//   --responses FILE  response sink ('-' = stdout, the default)
//   --workers N       evaluation threads per wave (0 = all host cores)
//   --store FILE      persistent result-store journal (reloads on start)
//   --max-queue N     admission bound on queued requests (default 1024)
//   --cache-capacity N  FIFO bound per sampler-domain SampleCache
//   --selftest        run the embedded determinism / admission / store
//                     round-trip checks and exit 0 on success
//
// Requests beyond the admission bound are rejected with a reason (status
// "rejected") rather than queued without bound — resubmit them after the
// daemon drains. Size --max-queue to the feed when replaying large files.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/jsonl.hpp"
#include "runner/batch.hpp"
#include "service/request.hpp"
#include "service/service.hpp"

using namespace smtbal;

namespace {

struct FeedResult {
  std::vector<std::string> records;  ///< deterministic result records
  std::string trailer;               ///< scheduling-dependent trailer
  service::ServiceStats stats;
};

/// Runs one request list through a fresh service: submit everything (in
/// order), graceful drain, collect the responses in submission order.
FeedResult run_feed(const std::vector<service::EvalRequest>& requests,
                    const service::ServiceConfig& config) {
  service::EvalService daemon(config);
  std::vector<std::future<service::EvalResponse>> futures;
  futures.reserve(requests.size());
  for (const service::EvalRequest& request : requests) {
    futures.push_back(daemon.submit(request));
  }
  daemon.shutdown();
  FeedResult feed;
  feed.records.reserve(futures.size());
  for (auto& future : futures) {
    feed.records.push_back(service::to_json_record(future.get()));
  }
  feed.trailer = daemon.trailer();
  feed.stats = daemon.stats();
  return feed;
}

int run_file_mode(const std::string& requests_path,
                  const std::string& responses_path,
                  const service::ServiceConfig& config) {
  std::vector<service::EvalRequest> requests;
  if (requests_path.empty() || requests_path == "-") {
    requests = service::parse_requests(std::cin, "<stdin>");
  } else {
    requests = service::parse_requests_file(requests_path);
  }

  const FeedResult feed = run_feed(requests, config);

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!responses_path.empty() && responses_path != "-") {
    file.open(responses_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw SimulationError("cannot write " + responses_path);
    }
    os = &file;
  }
  *os << jsonl::Writer("schema", service::kEvalResponseSchema, "type",
                       "meta", "requests", requests.size())
             .finish()
      << '\n';
  for (const std::string& record : feed.records) *os << record << '\n';
  *os << feed.trailer << '\n';

  std::cerr << "[evald] " << feed.records.size() << " requests, "
            << feed.stats.served << " served (" << feed.stats.store.hits
            << " store hits), " << feed.stats.rejected << " rejected, "
            << feed.stats.failed << " failed\n";
  // Every response that is not "ok" was counted as failed or rejected.
  return feed.stats.failed + feed.stats.rejected == 0 ? 0 : 1;
}

std::vector<service::EvalRequest> selftest_requests() {
  std::vector<service::EvalRequest> requests;
  const auto scenario = [&](std::string id, std::string spec,
                            std::string policy) {
    service::EvalRequest request;
    request.id = std::move(id);
    request.scenario = std::move(spec);
    request.policy = std::move(policy);
    return request;
  };
  requests.push_back(scenario("s1", "seed=7 ranks=4 cores=2 blocks=2", "none"));
  requests.push_back(scenario("s2", "seed=7 ranks=4 cores=2 blocks=2",
                              "dynamic"));
  // Same shape as s1 after canonicalization: must dedupe / store-hit, and
  // must serve the identical payload.
  requests.push_back(
      scenario("s3", "ranks=4 seed=7 blocks=2 cores=2 flavor=patched", "none"));
  requests.push_back(scenario("s4", "seed=11 ranks=6 cores=3 family=3", "none"));
  // A malformed scenario: must yield a deterministic error record.
  requests.push_back(scenario("s5", "seed=7 warp=9", "none"));
  requests.back().stats = service::StatSelection{true, true, false, false};
  return requests;
}

int run_selftest(service::ServiceConfig base) {
  const std::vector<service::EvalRequest> requests = selftest_requests();

  // 1. Responses must be byte-identical across worker counts.
  service::ServiceConfig one = base;
  one.workers = 1;
  service::ServiceConfig many = base;
  many.workers = 3;
  const FeedResult lhs = run_feed(requests, one);
  const FeedResult rhs = run_feed(requests, many);
  if (lhs.records != rhs.records) {
    std::cerr << "selftest: FAIL — responses differ between --workers 1 "
                 "and --workers 3\n";
    return 1;
  }

  // 2. Warm-store determinism: resubmitting the same feed to a live
  // service must serve hits and the identical records.
  {
    service::EvalService daemon(one);
    std::vector<std::future<service::EvalResponse>> first, second;
    for (const auto& request : requests) first.push_back(daemon.submit(request));
    daemon.wait_idle();
    for (const auto& request : requests) {
      second.push_back(daemon.submit(request));
    }
    daemon.shutdown();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string cold = service::to_json_record(first[i].get());
      const std::string warm = service::to_json_record(second[i].get());
      if (cold != warm) {
        std::cerr << "selftest: FAIL — warm response differs for '"
                  << requests[i].id << "'\n";
        return 1;
      }
    }
    if (daemon.stats().store.hits == 0) {
      std::cerr << "selftest: FAIL — resubmitted feed produced no store "
                   "hits\n";
      return 1;
    }
  }

  // 3. Admission control: with the dispatcher paused and a tiny bound,
  // the overflow must be rejected with a reason, deterministically.
  {
    service::ServiceConfig tiny = base;
    tiny.workers = 1;
    tiny.max_queue = 4;  // reserve 1 -> 3 batch slots
    service::EvalService daemon(tiny);
    daemon.pause();
    std::vector<std::future<service::EvalResponse>> futures;
    for (std::size_t i = 0; i < 6; ++i) {
      service::EvalRequest request = requests[0];
      request.id = "flood" + std::to_string(i);
      futures.push_back(daemon.submit(request));
    }
    daemon.resume();
    daemon.shutdown();
    std::size_t rejected = 0;
    for (auto& future : futures) {
      const service::EvalResponse response = future.get();
      if (response.status == service::Status::kRejected) {
        ++rejected;
        if (response.error.find("full") == std::string::npos) {
          std::cerr << "selftest: FAIL — rejection carries no reason\n";
          return 1;
        }
      }
    }
    if (rejected != 3) {
      std::cerr << "selftest: FAIL — expected 3 admission rejections, got "
                << rejected << "\n";
      return 1;
    }
  }

  // 4. Store round-trip: a journal written by one service instance must
  // serve hits — and identical records — in a fresh instance.
  {
    const std::filesystem::path journal =
        std::filesystem::temp_directory_path() /
        ("evald-selftest-" + std::to_string(::getpid()) + ".jsonl");
    std::filesystem::remove(journal);
    service::ServiceConfig stored = one;
    stored.store_path = journal.string();
    const FeedResult cold = run_feed(requests, stored);
    const FeedResult warm = run_feed(requests, stored);
    std::filesystem::remove(journal);
    if (cold.records != warm.records) {
      std::cerr << "selftest: FAIL — journal-reloaded responses differ\n";
      return 1;
    }
    if (warm.stats.store.loaded == 0 || warm.stats.evaluated != 0) {
      std::cerr << "selftest: FAIL — journal reload did not serve the "
                   "second run from the store\n";
      return 1;
    }
  }

  std::cout << "selftest: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const runner::CliOptions cli = runner::parse_cli(argc, argv);
  service::ServiceConfig config;
  config.workers = cli.jobs;
  config.cache_capacity = cli.cache_capacity;
  std::string requests_path;
  std::string responses_path;
  bool selftest = false;
  for (std::size_t i = 0; i < cli.positional.size(); ++i) {
    const std::string& arg = cli.positional[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      if (arg == flag) {
        SMTBAL_REQUIRE(i + 1 < cli.positional.size(), flag + " needs a value");
        return cli.positional[++i];
      }
      return arg.substr(flag.size() + 1);  // "--flag=value"
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--requests" || arg.rfind("--requests=", 0) == 0) {
      requests_path = value_of("--requests");
    } else if (arg == "--responses" || arg.rfind("--responses=", 0) == 0) {
      responses_path = value_of("--responses");
    } else if (arg == "--store" || arg.rfind("--store=", 0) == 0) {
      config.store_path = value_of("--store");
      SMTBAL_REQUIRE(!config.store_path.empty(), "--store needs a file path");
    } else if (arg == "--workers" || arg.rfind("--workers=", 0) == 0) {
      config.workers = runner::parse_jobs(value_of("--workers"));
    } else if (arg == "--max-queue" || arg.rfind("--max-queue=", 0) == 0) {
      const unsigned bound = runner::parse_jobs(value_of("--max-queue"));
      SMTBAL_REQUIRE(bound >= 1, "--max-queue must be >= 1");
      config.max_queue = bound;
    } else {
      throw InvalidArgument("unknown argument '" + arg +
                            "' (try --requests, --responses, --workers, "
                            "--store, --max-queue, --cache-capacity, "
                            "--selftest)");
    }
  }
  if (selftest) return run_selftest(config);
  return run_file_mode(requests_path, responses_path, config);
} catch (const std::exception& e) {
  std::cerr << "evald: " << e.what() << '\n';
  return 1;
}
