// Memory bound of the engine's message plane at the paper's huge-k
// regime: link state must grow with k plus traffic, not with k^2.
//
// Ring traffic at k = 4096 touches 4096 of the 16.8M ordered links per
// superstep.  A dense per-link plane (two parities of k per-link buckets
// plus per-destination counter rows per machine) needs ~2.7 GB here; the
// sparse plane needs a few KB per machine (its fiber stack's touched
// pages, its context, and one link slot per parity).  The budget below
// is 128 MB: ~32 KB per machine, generous against the ~6 KB measured and
// still 20x under the dense plane.
//
// Not in the quick tier, and skipped under sanitizers: ASan/TSan shadow
// memory and allocator quarantines inflate RSS by design, so the bound
// would measure the tool, not the plane.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "sim/engine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KM_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define KM_UNDER_SANITIZER 1
#endif
#endif

namespace km {
namespace {

/// Peak resident set of this process in KB (VmHWM), or -1 if unknown.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

TEST(MemoryBound, RingAtK4096StaysWithinTrafficBudget) {
#ifdef KM_UNDER_SANITIZER
  GTEST_SKIP() << "RSS bounds are meaningless under sanitizers";
#endif
  const long before_kb = peak_rss_kb();
  if (before_kb < 0) GTEST_SKIP() << "no /proc/self/status VmHWM here";

  constexpr std::size_t kMachines = 4096;
  constexpr int kSteps = 8;
  std::atomic<std::uint64_t> received{0};
  Engine engine(kMachines, {.bandwidth_bits = 4096, .seed = 9});
  const auto metrics = engine.run([&](MachineContext& ctx) {
    for (int step = 0; step < kSteps; ++step) {
      Writer w;
      w.put_varint(static_cast<std::uint64_t>(step));
      ctx.send((ctx.id() + 1) % kMachines, 1, w);
      received += ctx.exchange().size();
    }
  });
  const long growth_kb = peak_rss_kb() - before_kb;

  EXPECT_EQ(received.load(), kMachines * kSteps);
  EXPECT_EQ(metrics.messages, kMachines * kSteps);
  EXPECT_EQ(metrics.supersteps, static_cast<std::uint64_t>(kSteps));
  constexpr long kBudgetKb = 128 * 1024;
  EXPECT_LT(growth_kb, kBudgetKb)
      << "peak RSS grew by " << growth_kb / 1024 << " MB at k=" << kMachines;
}

}  // namespace
}  // namespace km
