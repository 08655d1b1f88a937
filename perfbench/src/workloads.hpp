// The benchmark's workloads.  Each returns a filled Report; exceptions
// escape only for failures outside the ops (set-up, spawn).
#pragma once

#include <string_view>

#include "report.hpp"

namespace perfbench {

/// pagerank-k64 and connectivity-k1024: one scenario cell run over and
/// over on a resident dataset, in this process.
bool is_batch_workload(std::string_view name);
Report run_batch(const Args& args);

/// serve-mix: closed-loop clients against a spawned km_serve daemon.
Report run_serve_mix(const Args& args);

}  // namespace perfbench
