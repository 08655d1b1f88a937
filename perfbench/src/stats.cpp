#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = n > kTailBeyond ? n - kTailBeyond - 1 : 0;
  t.value = samples[rank];
  t.beyond = n - rank - 1;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

double phase_wall_ms(const std::vector<km::MachinePhaseMs>& machines,
                     double km::MachinePhaseMs::*phase, std::size_t workers) {
  if (workers == 0) throw std::invalid_argument("phase_wall_ms: workers == 0");
  double sum = 0.0;
  for (const km::MachinePhaseMs& m : machines) sum += m.*phase;
  return sum / static_cast<double>(workers);
}

double engine_overhead_ms(double engine_ms,
                          const std::vector<km::MachinePhaseMs>& machines,
                          std::size_t workers) {
  using P = km::MachinePhaseMs;
  return engine_ms - phase_wall_ms(machines, &P::compute_ms, workers) -
         phase_wall_ms(machines, &P::send_ms, workers) -
         phase_wall_ms(machines, &P::deliver_ms, workers);
}

}  // namespace perfbench
