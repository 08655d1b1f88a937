// Batch workloads: one scenario cell, its dataset resident in this
// process, run back to back.
//
// The untraced run times ops: an op is run_workload + run_result_to_json,
// exactly what km_run and km_serve do per scenario.  The traced run calls
// each layer's public function in turn instead (load_dataset,
// runtime_partition, the core algorithm on an Engine configured as
// run_workload configures it, the graph reference check,
// run_result_to_json), and then run_workload itself, whose counters the
// layer decomposition must reproduce exactly.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/connectivity.hpp"
#include "core/pagerank.hpp"
#include "graph/pagerank_ref.hpp"
#include "layers.hpp"
#include "runtime/dataset_cache.hpp"
#include "runtime/results.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct BatchCell {
  const char* name;      ///< benchmark workload name
  const char* workload;  ///< registered runtime workload
  const char* dataset;
  std::size_t k;
};

// Why these two cells: see README.md, "Workloads".
constexpr BatchCell kCells[] = {
    {"pagerank-k64", "pagerank", "rmat:n=16384", 64},
    {"connectivity-k1024", "connectivity", "gnp:n=16384,p=0.0005", 1024},
};

constexpr std::size_t kWorkers = 4;
/// Scenario cells per run: the cell's workload, dataset family and k on
/// kCellsPerRun dataset seeds drawn from --seed, run in turn.  One
/// graph's quirks (an extra Boruvka phase, a heavier R-MAT hub) then move
/// a run's figures by a kCellsPerRun-th of what they would move in a
/// one-graph run, which keeps runs of different seeds comparable.
constexpr std::size_t kCellsPerRun = 8;
/// Set-up (materialize every cell's dataset cold, then one warm-up op)
/// is repeated this often; setup_s is the median.
constexpr int kSetupRepeats = 3;

const BatchCell* find_cell(std::string_view name) {
  for (const BatchCell& c : kCells) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

/// Why an op's result is wrong, or empty when it is right.  The first
/// passing run of a cell sets the counters its later runs must repeat.
std::string verdict(const km::RunResult& result,
                    std::optional<Counters>& expect) {
  if (!result.check.performed || !result.check.ok) {
    return "reference check failed: " + result.check.detail;
  }
  const Counters got = Counters::of(result.metrics);
  if (!expect) expect = got;
  if (got != *expect) {
    return "counters moved: " + got.str() + " vs " + expect->str();
  }
  return "";
}

struct CoreRun {
  km::Metrics metrics;
  km::CheckResult check;
  double check_ms = 0.0;
};

// The core call and reference check of each cell, with the constants of
// its runtime adapter (src/runtime/workloads_pagerank.cpp and
// workloads_sketch.cpp).  Should the adapters change, the counter
// comparison against run_workload fails the run.
CoreRun core_and_check(const BatchCell& cell, const km::Dataset& ds,
                       const km::VertexPartition& partition,
                       km::Engine& engine, std::uint64_t seed) {
  CoreRun out;
  if (std::string_view(cell.workload) == "pagerank") {
    constexpr double kEps = 0.2;
    constexpr double kC = 16.0;
    constexpr double kL1Tolerance = 0.15;
    const km::PageRankResult dist = km::distributed_pagerank(
        ds.digraph, partition, engine, {.eps = kEps, .c = kC});
    out.metrics = dist.metrics;
    const auto start = Clock::now();
    const double err = km::l1_distance(
        dist.estimates, km::expected_visit_pagerank(ds.digraph, {.eps = kEps}));
    out.check_ms = ms_between(start, Clock::now());
    out.check.performed = true;
    out.check.ok = err <= kL1Tolerance;
    out.check.detail = "L1 error " + std::to_string(err);
  } else {
    km::SketchConnectivityConfig config;
    config.seed = km::mix64(seed, 0x5ce7'c401ULL);
    const auto dist =
        km::sketch_connectivity(ds.graph, partition, engine, config);
    out.metrics = dist.metrics;
    const auto start = Clock::now();
    out.check = km::check_component_labels(ds.graph, dist.labels,
                                           dist.num_components);
    out.check_ms = ms_between(start, Clock::now());
  }
  return out;
}

/// Seed of the run's j-th scenario cell.
std::uint64_t cell_seed(const Args& args, std::size_t j) {
  return km::mix64(args.seed, j);
}

km::RunParams params_for(const BatchCell& cell, std::uint64_t seed) {
  km::RunParams p;
  p.k = cell.k;
  p.seed = seed;
  p.workers = kWorkers;
  return p;
}

/// Cost summed once over the cells whose counters are known.
Cost cost_of(const std::vector<std::optional<Counters>>& cells) {
  Cost cost;
  for (const auto& c : cells) {
    if (!c) continue;
    ++cost.cells;
    cost.sum += *c;
  }
  return cost;
}

Report end_to_end(const BatchCell& cell, const km::Workload& workload,
                  const Args& args) {
  km::DatasetCache& cache = km::DatasetCache::instance();
  Report report;
  EndToEnd e2e;
  std::vector<std::shared_ptr<const km::Dataset>> ds;
  std::vector<std::optional<Counters>> expect(kCellsPerRun);

  OpLedger ledger;
  // One checked op on cell j; its latency, or nothing when it failed.
  const auto op = [&](std::size_t j) -> std::optional<double> {
    const auto start = Clock::now();
    try {
      const km::RunResult result = km::run_workload(
          workload, *ds[j], params_for(cell, cell_seed(args, j)));
      const std::string doc = km::run_result_to_json(result, 0);
      const double ms = ms_between(start, Clock::now());
      if (const std::string why = verdict(result, expect[j]); !why.empty()) {
        ledger.fail(why);
      } else if (doc.empty()) {
        ledger.fail("empty result document");
      } else {
        ledger.ok();
        return ms;
      }
    } catch (const std::exception& e) {
      ledger.fail(e.what());
    }
    return std::nullopt;
  };

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ds.clear();
    cache.clear();
    const auto start = Clock::now();
    for (std::size_t j = 0; j < kCellsPerRun; ++j) {
      ds.push_back(
          cache.get(cell.dataset, workload.input_kind(), cell_seed(args, j)));
    }
    (void)op(0);  // the untimed warm-up op
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  e2e.setup_s = median(setup_s);

  const auto start = Clock::now();
  const auto deadline = seconds_after(start, args.seconds);
  std::size_t ops = 0;
  while (Clock::now() < deadline) {
    if (const auto ms = op(ops++ % kCellsPerRun)) e2e.latency_ms.push_back(*ms);
  }
  e2e.window_s = ms_between(start, Clock::now()) / 1000.0;
  // Every cell counts in rounds and bits, even if the window was short.
  for (std::size_t j = ops; j < kCellsPerRun; ++j) (void)op(j);
  e2e.peak_rss_mb = peak_rss_mb(getpid());

  report.workers = kWorkers;
  report.runners = 1;
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
  report.cost = cost_of(expect);
  report_end_to_end(report, e2e);
  return report;
}

Report layers(const BatchCell& cell, const km::Workload& workload,
              const Args& args) {
  const std::size_t workers = std::min(kWorkers, cell.k);
  km::DatasetCache& cache = km::DatasetCache::instance();
  cache.clear();
  const km::DatasetCacheCounters cache_base = cache.counters();
  Report report;
  report.workers = kWorkers;
  report.runners = 1;
  LayerSamples samples;
  OpLedger ledger;
  std::vector<std::optional<Counters>> expect(kCellsPerRun);

  const auto deadline = seconds_after(Clock::now(), args.seconds);
  std::size_t iteration = 0;
  do {
    const std::size_t j = iteration++ % kCellsPerRun;
    const std::uint64_t seed = cell_seed(args, j);
    const km::RunParams params = params_for(cell, seed);
    auto t = Clock::now();
    const km::Dataset cold =
        km::load_dataset(cell.dataset, workload.input_kind(), seed);
    samples.add("runtime.dataset_load_ms", ms_between(t, Clock::now()));
    const auto ds = cache.get(cell.dataset, workload.input_kind(), seed);

    t = Clock::now();
    const km::VertexPartition partition =
        km::runtime_partition(ds->n, cell.k, seed);
    samples.add("sim.partition_ms", ms_between(t, Clock::now()));

    CoreRun core;
    {
      const std::uint64_t bandwidth =
          km::EngineConfig::default_bandwidth(std::max<std::size_t>(ds->n, 2));
      km::Engine engine(
          cell.k, {.bandwidth_bits = bandwidth,
                   .seed = seed,
                   .record_timeline = params.record_timeline,
                   .trace = true,
                   .framed_payload_max_bytes =
                       km::framed_payload_default_bytes(bandwidth),
                   .workers = kWorkers});
      core = core_and_check(cell, *ds, partition, engine, seed);
    }
    samples.add(engine_layers(core.metrics, workers));
    samples.add("graph.check_ms", core.check_ms);

    const km::RunResult untraced = km::run_workload(workload, *ds, params);
    t = Clock::now();
    const std::string doc = km::run_result_to_json(untraced, 0);
    samples.add("runtime.serialize_ms", ms_between(t, Clock::now()));
    samples.add("runtime.serialize_bytes", static_cast<double>(doc.size()));
    samples.add("sim.trace_overhead_ratio",
                core.metrics.wall_ms / untraced.metrics.wall_ms);

    const Counters layered = Counters::of(core.metrics);
    if (layered != Counters::of(untraced.metrics)) {
      report.fatal = "layer run counters " + layered.str() +
                     " differ from run_workload's " +
                     Counters::of(untraced.metrics).str();
      ledger.fail(report.fatal);
      break;
    }
    if (!core.check.ok) {
      ledger.fail("layer reference check failed: " + core.check.detail);
    } else if (const std::string why = verdict(untraced, expect[j]);
               !why.empty()) {
      ledger.fail(why);
    } else {
      ledger.ok();
    }
  } while (Clock::now() < deadline);

  const km::DatasetCacheCounters delta = cache.counters().since(cache_base);
  samples.add("runtime.dataset_cache_hit_ratio",
              static_cast<double>(delta.hits) /
                  static_cast<double>(delta.hits + delta.misses));
  samples.report_into(report, /*use_mean=*/false);
  report.attempted = ledger.attempted();
  report.failed = ledger.failed();
  report.cost = cost_of(expect);
  return report;
}

}  // namespace

bool is_batch_workload(std::string_view name) {
  return find_cell(name) != nullptr;
}

Report run_batch(const Args& args) {
  const BatchCell* cell = find_cell(args.workload);
  if (!cell) throw std::invalid_argument("unknown batch workload");
  const km::Workload* workload =
      km::WorkloadRegistry::instance().find(cell->workload);
  if (!workload) {
    throw std::runtime_error(std::string("workload not registered: ") +
                             cell->workload);
  }
  return args.trace ? layers(*cell, *workload, args)
                    : end_to_end(*cell, *workload, args);
}

}  // namespace perfbench
