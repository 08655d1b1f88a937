// The benchmark's metric names, and the per-layer figures a traced engine
// run yields.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Per-layer samples gathered over a traced run, keyed by metric name.
class LayerSamples {
 public:
  void add(const std::string& name, double value);
  void add(const std::vector<Metric>& metrics);

  /// Adds every per-layer metric to `report`, each as the median (or
  /// mean) of its samples.  A layer the workload does not exercise
  /// reports 0.
  void report_into(Report& report, bool use_mean) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// The engine-side layer figures of one traced run (`metrics.timing`
/// must be enabled): sim.*, core.compute_ms and util.* metrics.
std::vector<Metric> engine_layers(const km::Metrics& metrics,
                                  std::size_t workers);

/// What a workload measured for its end-to-end metrics.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latency_ms;  ///< one sample per successful op
  double window_s = 0.0;           ///< length of the timed window
  double peak_rss_mb = 0.0;
};

/// Adds every end-to-end metric to `report`; `report.cost`, `attempted`
/// and `failed` must already be filled in.
void report_end_to_end(Report& report, const EndToEnd& e2e);

}  // namespace perfbench
