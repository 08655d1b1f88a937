// Summary statistics the benchmark reports, kept apart from the timing
// code so tests can pin them.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

/// Samples that must lie above the reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// The tail of a latency distribution: the highest percentile that still
/// has kTailBeyond samples ranked above it, i.e. the (kTailBeyond+1)-th
/// largest sample.  `percentile` is the share of samples ranked at or
/// below it, in percent.  With kTailBeyond or fewer samples no percentile
/// qualifies; the smallest sample is returned and `beyond` says how many
/// samples lie above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> samples);

/// Engine wall time not spent inside the machines' own phases: the
/// barrier fold and finalize, the drain bookkeeping and fiber scheduling.
/// engine_ms - sum over machines of (compute + send + deliver) / workers,
/// where the machines' phase times are divided by the worker count
/// because `workers` threads run them in parallel.
double engine_overhead_ms(double engine_ms,
                          const std::vector<km::MachinePhaseMs>& machines,
                          std::size_t workers);

/// Sum over machines of one phase, divided by `workers`: the phase's
/// share of the engine's wall time.
double phase_wall_ms(const std::vector<km::MachinePhaseMs>& machines,
                     double km::MachinePhaseMs::*phase, std::size_t workers);

}  // namespace perfbench
