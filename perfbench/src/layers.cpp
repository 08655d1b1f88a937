#include "layers.hpp"

#include <numeric>

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order; BENCHMARK.json's per_layer
// list names the same set.
constexpr Name kPerLayer[] = {
    {"runtime.dataset_load_ms", "ms"},
    {"runtime.dataset_cache_hit_ratio", "ratio"},
    {"runtime.serialize_ms", "ms"},
    {"runtime.serialize_bytes", "bytes"},
    {"sim.partition_ms", "ms"},
    {"sim.engine_ms", "ms"},
    {"sim.messages_per_s", "1/s"},
    {"sim.supersteps", "count"},
    {"sim.engine_ms_per_superstep", "ms"},
    {"sim.engine_overhead_ms", "ms"},
    {"sim.send_ms", "ms"},
    {"sim.deliver_ms", "ms"},
    {"sim.barrier_wait_ms", "ms"},
    {"sim.barrier_wait_skew", "ratio"},
    {"core.compute_ms", "ms"},
    {"util.pool_hit_ratio", "ratio"},
    {"util.pool_evicted_bytes", "bytes"},
    {"util.payload_pool_hit_ratio", "ratio"},
    {"graph.check_ms", "ms"},
    {"serve.replay_ms.p50", "ms"},
    {"serve.engine_ms.p50", "ms"},
    {"serve.replay_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"sim.trace_overhead_ratio", "ratio"},
};

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void LayerSamples::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void LayerSamples::add(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) add(m.name, m.value);
}

void LayerSamples::report_into(Report& report, bool use_mean) const {
  for (const Name& n : kPerLayer) {
    double value = 0.0;
    if (const auto it = samples_.find(n.name); it != samples_.end()) {
      const std::vector<double>& v = it->second;
      value = use_mean ? std::accumulate(v.begin(), v.end(), 0.0) /
                             static_cast<double>(v.size())
                       : median(v);
    }
    report.add(n.name, value, n.unit);
  }
}

std::vector<Metric> engine_layers(const km::Metrics& metrics,
                                  std::size_t workers) {
  using P = km::MachinePhaseMs;
  const auto& machines = metrics.timing.per_machine;
  const double engine_ms = metrics.wall_ms;
  const double supersteps = static_cast<double>(metrics.supersteps);
  const km::BufferPoolCounters& pool = metrics.pool;
  const km::PayloadPoolCounters& payload = metrics.payload_pool;
  return {
      {"sim.engine_ms", engine_ms, "ms"},
      {"sim.messages_per_s",
       ratio(static_cast<double>(metrics.messages), engine_ms / 1000.0), "1/s"},
      {"sim.supersteps", supersteps, "count"},
      {"sim.engine_ms_per_superstep", ratio(engine_ms, supersteps), "ms"},
      {"sim.engine_overhead_ms",
       engine_overhead_ms(engine_ms, machines, workers), "ms"},
      {"sim.send_ms", phase_wall_ms(machines, &P::send_ms, workers), "ms"},
      {"sim.deliver_ms", phase_wall_ms(machines, &P::deliver_ms, workers),
       "ms"},
      {"sim.barrier_wait_ms", metrics.timing.barrier_wait_mean_ms, "ms"},
      {"sim.barrier_wait_skew", metrics.timing.barrier_wait_skew, "ratio"},
      {"core.compute_ms", phase_wall_ms(machines, &P::compute_ms, workers),
       "ms"},
      {"util.pool_hit_ratio",
       ratio(static_cast<double>(pool.hits),
             static_cast<double>(pool.hits + pool.misses)),
       "ratio"},
      {"util.pool_evicted_bytes", static_cast<double>(pool.evicted_bytes),
       "bytes"},
      {"util.payload_pool_hit_ratio",
       ratio(static_cast<double>(payload.hits),
             static_cast<double>(payload.hits + payload.misses)),
       "ratio"},
  };
}

void report_end_to_end(Report& report, const EndToEnd& e2e) {
  report.latency_tail = tail(e2e.latency_ms);
  const double ops = static_cast<double>(e2e.latency_ms.size());
  report.add("setup_s", e2e.setup_s, "s");
  report.add("latency_ms.p50", median(e2e.latency_ms), "ms");
  report.add("latency_ms.tail", report.latency_tail.value, "ms");
  report.add("ops_per_s", ratio(ops, e2e.window_s), "1/s");
  report.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.add("rounds", static_cast<double>(report.cost.sum.rounds), "count");
  report.add("bits", static_cast<double>(report.cost.sum.bits), "bit");
  report.add("ok_ratio",
             ratio(static_cast<double>(report.attempted - report.failed),
                   static_cast<double>(report.attempted)),
             "ratio");
}

}  // namespace perfbench
