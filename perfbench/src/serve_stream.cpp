#include "serve_stream.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/json.hpp"

namespace perfbench {
namespace {

struct WorkloadInput {
  const char* workload;
  const char* kind;  ///< the dataset kind the workload consumes
};

// The six servable workloads the mix draws from, each with its input
// kind: a resident dataset can only be shared within one kind, since the
// kind is part of the dataset cache's key.
constexpr WorkloadInput kWorkloads[] = {
    {"components", "undirected"}, {"mst", "weighted"},
    {"sort", "keys"},             {"triangles", "undirected"},
    {"pagerank", "directed"},     {"connectivity", "undirected"},
};

constexpr std::size_t kMachineCounts[] = {8, 16, 32};

/// How many of a kind's most recently touched datasets a new cell may
/// reuse.  Small enough that they stay in the daemon's dataset cache.
constexpr std::size_t kResidentWindow = 3;

std::string spec_for(const std::string& kind) {
  const std::string n = std::to_string(ServeStream::kDatasetN);
  return kind == "keys" ? "keys:n=" + n : "gnp:n=" + n + ",p=0.002";
}

}  // namespace

std::string ServeCell::key() const {
  return workload + "|" + dataset + "|k=" + std::to_string(k) +
         "|seed=" + std::to_string(seed);
}

std::string ServeCell::request_line(std::size_t workers) const {
  km::JsonWriter w(0);
  w.begin_object();
  w.field("op", "run");
  w.field("workload", workload);
  w.field("dataset", dataset);
  w.field("k", std::uint64_t{k});
  w.field("seed", seed);
  w.field("workers", std::uint64_t{workers});
  w.end_object();
  return w.str();
}

ServeStream::ServeStream(std::uint64_t seed, std::size_t client)
    : rng_(seed, client), seed_base_(km::mix64(seed, client)) {}

bool ServeStream::issued(const ServeCell& cell) const {
  return std::find(cells_.begin(), cells_.end(), cell) != cells_.end();
}

ServeCell ServeStream::new_cell(bool& resident) {
  constexpr std::size_t kWorkloadCount = std::size(kWorkloads);
  static_assert(kWorkloadCount * std::size(kMachineCounts) == kDeckSize);
  if (deck_pos_ == deck_.size()) {
    deck_.resize(kDeckSize);
    for (std::size_t i = 0; i < kDeckSize; ++i) deck_[i] = i;
    for (std::size_t i = kDeckSize; i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.below(i)]);
    }
    deck_pos_ = 0;
  }
  const std::size_t pair = deck_[deck_pos_++];
  ServeCell cell;
  cell.workload = kWorkloads[pair % kWorkloadCount].workload;
  cell.k = kMachineCounts[pair / kWorkloadCount];
  const std::string kind = kWorkloads[pair % kWorkloadCount].kind;

  resident = false;
  if (rng_.bernoulli(0.5)) {
    std::size_t seen = 0;
    for (auto it = touched_.rbegin();
         it != touched_.rend() && seen < kResidentWindow; ++it) {
      if (it->kind != kind) continue;
      ++seen;
      cell.dataset = it->dataset;
      cell.seed = it->seed;
      if (!issued(cell)) {
        resident = true;
        return cell;
      }
    }
  }
  // First touch: a fresh dataset seed.  Kept below 2^53 so it survives
  // the wire protocol's JSON numbers exactly.
  cell.dataset = spec_for(kind);
  cell.seed = km::mix64(seed_base_, datasets_made_++) & ((1ULL << 53) - 1);
  touched_.push_back({kind, cell.dataset, cell.seed});
  return cell;
}

ServeRequest ServeStream::next() {
  if (block_pos_ == 0) replay_slot_ = rng_.below(3);
  const bool replay_turn = block_pos_ == replay_slot_;
  block_pos_ = (block_pos_ + 1) % 3;

  ServeRequest request;
  if (replay_turn && !cells_.empty()) {
    request.cell = cells_[rng_.below(cells_.size())];
    request.replay = true;
    return request;
  }
  request.cell = new_cell(request.resident);
  cells_.push_back(request.cell);
  return request;
}

}  // namespace perfbench
