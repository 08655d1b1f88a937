// serve-mix: closed-loop clients against a km_serve daemon.
//
// The daemon is spawned from the km_serve binary built beside the
// benchmark, so the process measured is the one users run.  Each client
// connection replays its own ServeStream and waits for every answer
// before sending the next request.  Every answer is checked: status ok,
// a km.run_result/v1 document whose reference check passed, and for a
// cell seen before, the very bytes of its first document.
//
// The traced run adds an in-process layer pass over client 0's cost
// cells (its first kCostCells new cells): dataset cache,
// runtime_partition, a traced and an untraced run_workload, and
// run_result_to_json, with the counters checked against the daemon's.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "serve/client.hpp"
#include "serve_stream.hpp"
#include "util/json_parse.hpp"
#include "workloads.hpp"

#ifndef KM_PERFBENCH_SERVE_BIN
#error "KM_PERFBENCH_SERVE_BIN must name the km_serve binary"
#endif

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kRunners = 2;
constexpr std::size_t kWorkersPerRun = 2;
/// Small enough that the daemon's resident set plateaus early in a run,
/// large enough to hold every client's resident window.
constexpr const char* kDatasetCacheMb = "32";
/// Daemon spawns per run; setup_s is the median spawn-to-first-ping.
constexpr int kSpawnRepeats = 21;
/// Each client's first kCostCells new cells make up `rounds` and `bits`:
/// a fixed set, so the paper's cost of a run does not depend on how many
/// requests the window held.  One full deck, so the (workload, k) mix of
/// the set is the same for every seed.  Client 0's set is also what the
/// traced layer pass runs in-process.
constexpr std::size_t kCostCells = ServeStream::kDeckSize;

/// A spawned km_serve daemon.  The destructor kills and reaps it if
/// shutdown() was not reached.
class Daemon {
 public:
  explicit Daemon(std::string socket_path) : socket_(std::move(socket_path)) {
    std::vector<std::string> argv_s = {
        KM_PERFBENCH_SERVE_BIN, "serve", "--socket", socket_,
        "--runners", std::to_string(kRunners), "--dataset-cache-mb",
        kDatasetCacheMb};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The daemon's stdout goes to our stderr: our stdout is the report.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("spawn km_serve: ") +
                               std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
    std::error_code ignored;
    std::filesystem::remove(socket_, ignored);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Polls with ping until the daemon answers.
  void wait_ready() {
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < give_up) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("km_serve exited before answering ping");
      }
      try {
        km::serve::ServeClient client(socket_);
        if (status_ok(client.request(R"({"op":"ping"})").meta)) return;
      } catch (const std::exception&) {
        // not listening yet
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("km_serve did not answer ping within 60 s");
  }

  /// Asks the daemon to stop and reaps it.
  void shutdown() {
    try {
      km::serve::ServeClient client(socket_);
      (void)client.request(R"({"op":"shutdown"})");
    } catch (const std::exception&) {
      ::kill(pid_, SIGKILL);  // the socket is gone; stop it the hard way
    }
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reap();
  }

  static bool status_ok(const std::string& meta) {
    km::JsonValue v;
    std::string error;
    if (!km::parse_json(meta, v, error)) return false;
    const km::JsonValue* status = v.find("status");
    return status && status->string == "ok";
  }

 private:
  void reap() {
    if (pid_ <= 0) return;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  std::string socket_;
  pid_t pid_ = -1;
};

double number_at(const km::JsonValue& v, std::string_view a,
                 std::string_view b) {
  const km::JsonValue* outer = v.find(a);
  const km::JsonValue* inner = outer ? outer->find(b) : nullptr;
  if (!inner || !inner->is(km::JsonValue::Kind::kNumber)) {
    throw std::runtime_error("missing number " + std::string(a) + "." +
                             std::string(b));
  }
  return inner->number;
}

/// Checks one run response; returns why it is wrong, or empty.  On
/// success `source` and `counters` are filled from it.
std::string check_response(const ServeCell& cell,
                           const km::serve::WireResponse& response,
                           std::string& source, Counters& counters) {
  km::JsonValue meta;
  km::JsonValue doc;
  std::string error;
  if (!km::parse_json(response.meta, meta, error)) {
    return "meta line does not parse: " + error;
  }
  const km::JsonValue* status = meta.find("status");
  if (!status || status->string != "ok") {
    const km::JsonValue* what = meta.find("error");
    return "error response for " + cell.key() + ": " +
           (what ? what->string : response.meta);
  }
  const km::JsonValue* src = meta.find("source");
  source = src ? src->string : "";
  if (!km::parse_json(response.doc, doc, error)) {
    return "document does not parse: " + error;
  }
  const km::JsonValue* schema = doc.find("schema");
  if (!schema || schema->string != "km.run_result/v1") {
    return "document is not km.run_result/v1";
  }
  const km::JsonValue* workload = doc.find("workload");
  if (!workload || workload->string != cell.workload) {
    return "document is for another workload";
  }
  const km::JsonValue* check = doc.find("check");
  const km::JsonValue* ok = check ? check->find("ok") : nullptr;
  const km::JsonValue* performed = check ? check->find("performed") : nullptr;
  if (!ok || !performed || !ok->boolean || !performed->boolean) {
    return "reference check not passed for " + cell.key();
  }
  try {
    counters.rounds = static_cast<std::uint64_t>(number_at(doc, "metrics", "rounds"));
    counters.bits = static_cast<std::uint64_t>(number_at(doc, "metrics", "bits"));
    counters.messages =
        static_cast<std::uint64_t>(number_at(doc, "metrics", "messages"));
    counters.supersteps =
        static_cast<std::uint64_t>(number_at(doc, "metrics", "supersteps"));
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// What one client saw.
struct ClientLog {
  std::vector<double> latency_ms;  ///< timed successful requests
  std::vector<double> replay_ms;   ///< ... served from the result store
  std::vector<double> engine_ms;   ///< ... served by an engine run
  std::map<std::string, Counters> cost_cells;  ///< by cell key
};

void run_client(const std::string& socket, std::uint64_t seed,
                std::size_t client, Clock::time_point deadline,
                OpLedger& ledger, ClientLog& log) {
  km::serve::ServeClient connection(socket);
  ServeStream stream(seed, client);
  std::map<std::string, std::string> first_doc;
  std::size_t new_cells = 0;
  while (true) {
    const bool timed = Clock::now() < deadline;
    if (!timed && new_cells >= kCostCells) break;
    const ServeRequest request = stream.next();
    const bool costed = !request.replay && new_cells++ < kCostCells;
    const auto start = Clock::now();
    km::serve::WireResponse response;
    try {
      response = connection.request(request.cell.request_line(kWorkersPerRun));
    } catch (const std::exception& e) {
      ledger.fail(std::string("connection: ") + e.what());
      return;  // the connection is unusable
    }
    const double ms = ms_between(start, Clock::now());
    std::string source;
    Counters counters;
    std::string why = check_response(request.cell, response, source, counters);
    if (why.empty()) {
      const auto [it, first] =
          first_doc.emplace(request.cell.key(), response.doc);
      if (!first && it->second != response.doc) {
        why = "document of " + request.cell.key() +
              " differs from its first document";
      }
    }
    if (!why.empty()) {
      ledger.fail(why);
      continue;
    }
    ledger.ok();
    if (costed) log.cost_cells.emplace(request.cell.key(), counters);
    if (!timed) continue;
    log.latency_ms.push_back(ms);
    (source == "result_store" ? log.replay_ms : log.engine_ms).push_back(ms);
  }
}

/// The traced run's in-process pass over client 0's cost cells.
void layer_pass(const Args& args, const std::map<std::string, Counters>& served,
                LayerSamples& samples, Report& report) {
  km::DatasetCache& cache = km::DatasetCache::instance();
  cache.clear();
  ServeStream stream(args.seed, 0);
  for (std::size_t cells = 0; cells < kCostCells;) {
    const ServeRequest request = stream.next();
    if (request.replay) continue;
    ++cells;
    const ServeCell& cell = request.cell;
    const km::Workload* workload =
        km::WorkloadRegistry::instance().find(cell.workload);
    if (!workload) throw std::runtime_error("unknown workload " + cell.workload);

    const std::uint64_t misses = cache.counters().misses;
    auto t = Clock::now();
    const auto ds = cache.get(cell.dataset, workload->input_kind(), cell.seed);
    if (cache.counters().misses > misses) {
      samples.add("runtime.dataset_load_ms", ms_between(t, Clock::now()));
    }
    if (workload->input_kind() != km::DatasetKind::kKeys) {
      t = Clock::now();
      (void)km::runtime_partition(ds->n, cell.k, cell.seed);
      samples.add("sim.partition_ms", ms_between(t, Clock::now()));
    }

    km::RunParams params;
    params.k = cell.k;
    params.seed = cell.seed;
    params.workers = kWorkersPerRun;
    params.trace = true;
    const km::RunResult traced = km::run_workload(*workload, *ds, params);
    samples.add(engine_layers(traced.metrics,
                              std::min(kWorkersPerRun, cell.k)));
    params.trace = false;
    const km::RunResult untraced = km::run_workload(*workload, *ds, params);
    t = Clock::now();
    const std::string doc = km::run_result_to_json(untraced, 0);
    samples.add("runtime.serialize_ms", ms_between(t, Clock::now()));
    samples.add("runtime.serialize_bytes", static_cast<double>(doc.size()));
    samples.add("sim.trace_overhead_ratio",
                traced.metrics.wall_ms / untraced.metrics.wall_ms);

    const Counters here = Counters::of(traced.metrics);
    const auto it = served.find(cell.key());
    if (here != Counters::of(untraced.metrics) ||
        (it != served.end() && it->second != here)) {
      report.fatal = "layer pass counters for " + cell.key() + " (" +
                     here.str() + ") differ from run_workload's or the "
                     "daemon's";
      return;
    }
  }
}

}  // namespace

Report run_serve_mix(const Args& args) {
  const std::string socket =
      args.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  Report report;
  report.workers = kWorkersPerRun;
  report.runners = kRunners;
  EndToEnd e2e;

  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSpawnRepeats; ++i) {
    if (daemon) {
      daemon->shutdown();
      daemon.reset();
    }
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(socket);
    daemon->wait_ready();
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  e2e.setup_s = median(setup_s);

  OpLedger ledger;
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto deadline = seconds_after(start, args.seconds);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          run_client(socket, args.seed, c, deadline, ledger, logs[c]);
        } catch (const std::exception& e) {
          ledger.fail(std::string("client: ") + e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  e2e.window_s = ms_between(start, Clock::now()) / 1000.0;

  km::JsonValue stats;
  {
    km::serve::ServeClient client(socket);
    std::string error;
    if (!km::parse_json(client.request(R"({"op":"stats"})").doc, stats,
                        error)) {
      throw std::runtime_error("stats document does not parse: " + error);
    }
  }
  e2e.peak_rss_mb = peak_rss_mb(daemon->pid());
  daemon->shutdown();
  daemon.reset();

  std::map<std::string, Counters> cost_cells;
  for (const ClientLog& log : logs) {
    cost_cells.insert(log.cost_cells.begin(), log.cost_cells.end());
    e2e.latency_ms.insert(e2e.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
  }
  report.cost.cells = cost_cells.size();
  for (const auto& [key, counters] : cost_cells) report.cost.sum += counters;
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();

  if (!args.trace) {
    report_end_to_end(report, e2e);
    return report;
  }

  LayerSamples samples;
  std::vector<double> replay_ms;
  std::vector<double> engine_ms;
  for (const ClientLog& log : logs) {
    replay_ms.insert(replay_ms.end(), log.replay_ms.begin(), log.replay_ms.end());
    engine_ms.insert(engine_ms.end(), log.engine_ms.begin(), log.engine_ms.end());
  }
  const double runs = number_at(stats, "service", "runs");
  const double replays = number_at(stats, "service", "replays");
  const double hits = number_at(stats, "dataset_cache", "hits");
  const double misses = number_at(stats, "dataset_cache", "misses");
  samples.add("serve.replay_ms.p50", median(replay_ms));
  samples.add("serve.engine_ms.p50", median(engine_ms));
  samples.add("serve.replay_ratio", replays / (runs + replays));
  samples.add("serve.shed", number_at(stats, "service", "shed"));
  samples.add("serve.errors", number_at(stats, "service", "errors"));
  samples.add("runtime.dataset_cache_hit_ratio", hits / (hits + misses));
  layer_pass(args, cost_cells, samples, report);
  samples.report_into(report, /*use_mean=*/true);
  return report;
}

}  // namespace perfbench
