// Tests of the benchmark's own logic: the tail-percentile rule, the
// engine-overhead derivation, and the serve-mix stream generator.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "serve_stream.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so tail() has to sort
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
  const Tail t = tail(one_to(1000));
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
}

TEST(Tail, ElevenSamplesGiveTheSmallest) {
  const Tail t = tail(one_to(11));
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0 / 11.0);
}

TEST(Tail, TooFewSamplesSayHowManyLieBeyond) {
  const Tail t = tail(one_to(4));
  EXPECT_EQ(t.samples, 4u);
  EXPECT_EQ(t.beyond, 3u);
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Tail, PercentileRisesWithSampleCount) {
  EXPECT_DOUBLE_EQ(tail(one_to(20)).percentile, 50.0);
  EXPECT_DOUBLE_EQ(tail(one_to(100)).percentile, 90.0);
  EXPECT_DOUBLE_EQ(tail(one_to(100)).value, 90.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(EngineOverhead, SubtractsMachinePhasesSharedOverWorkers) {
  // Four machines on two workers: 40 ms compute + 8 ms send + 12 ms
  // deliver of machine time is 30 ms of wall time; barrier wait is not
  // subtracted (it is the time the overhead hides in).
  const std::vector<km::MachinePhaseMs> machines = {
      {0, 10.0, 2.0, 50.0, 3.0},
      {1, 10.0, 2.0, 50.0, 3.0},
      {2, 10.0, 2.0, 50.0, 3.0},
      {3, 10.0, 2.0, 50.0, 3.0},
  };
  EXPECT_DOUBLE_EQ(engine_overhead_ms(100.0, machines, 2), 70.0);
  EXPECT_DOUBLE_EQ(engine_overhead_ms(100.0, machines, 4), 85.0);
  EXPECT_DOUBLE_EQ(
      phase_wall_ms(machines, &km::MachinePhaseMs::compute_ms, 2), 20.0);
  EXPECT_DOUBLE_EQ(engine_overhead_ms(5.0, {}, 1), 5.0);
}

std::vector<std::string> lines(std::uint64_t seed, std::size_t client,
                               std::size_t count) {
  ServeStream stream(seed, client);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    const ServeRequest r = stream.next();
    out.push_back(r.cell.request_line(2) + (r.replay ? " replay" : ""));
  }
  return out;
}

TEST(ServeStream, SameSeedSameSequence) {
  EXPECT_EQ(lines(7, 0, 300), lines(7, 0, 300));
  EXPECT_EQ(lines(7, 3, 300), lines(7, 3, 300));
}

TEST(ServeStream, OtherSeedOrClientOtherSequence) {
  EXPECT_NE(lines(7, 0, 30), lines(8, 0, 30));
  EXPECT_NE(lines(7, 0, 30), lines(7, 1, 30));
}

TEST(ServeStream, MixHasTheStatedShape) {
  ServeStream stream(11, 2);
  std::set<std::string> seen;
  std::size_t replays = 0;
  std::size_t resident = 0;
  std::size_t fresh = 0;
  for (std::size_t block = 0; block < 100; ++block) {
    std::size_t block_replays = 0;
    for (int i = 0; i < 3; ++i) {
      const ServeRequest r = stream.next();
      const std::string key = r.cell.key();
      if (r.replay) {
        ++block_replays;
        EXPECT_TRUE(seen.count(key)) << "replay of an unseen cell " << key;
      } else {
        EXPECT_TRUE(seen.insert(key).second) << "new cell repeated " << key;
        (r.resident ? resident : fresh) += 1;
      }
      EXPECT_TRUE(r.cell.k == 8 || r.cell.k == 16 || r.cell.k == 32);
    }
    // The first block may lack a replay when its slot comes first.
    EXPECT_LE(block_replays, 1u);
    if (block > 0) {
      EXPECT_EQ(block_replays, 1u);
    }
    replays += block_replays;
  }
  EXPECT_GE(replays, 99u);
  // Resident and first-touch cells both take a real share of new cells.
  EXPECT_GT(resident, 50u);
  EXPECT_GT(fresh, 50u);
}

TEST(ServeStream, EveryDeckHoldsEachWorkloadAndKOnce) {
  ServeStream stream(5, 0);
  for (int deck = 0; deck < 3; ++deck) {
    std::set<std::string> pairs;
    for (std::size_t dealt = 0; dealt < ServeStream::kDeckSize;) {
      const ServeRequest r = stream.next();
      if (r.replay) continue;
      ++dealt;
      pairs.insert(r.cell.workload + "/" + std::to_string(r.cell.k));
    }
    EXPECT_EQ(pairs.size(), ServeStream::kDeckSize);
  }
}

}  // namespace
}  // namespace perfbench
