// The serve-mix request stream: one seeded, closed-loop sequence of
// km_serve run requests per client connection.
//
// Each client draws its own stream from (seed, client), so the sequence
// a client sends does not depend on how fast the daemon answers, and
// the dataset seeds it invents never collide with another client's.
// Requests come in blocks of three with exactly one replay of an
// earlier cell of the same client (placed at a seeded position), so a
// third of the traffic reads the result store.  The other two are new
// cells: about half of them on a dataset the client already touched
// (dataset-cache hit, partition recompute, store write) and the rest on
// a first-touch dataset.  The (workload, k) pairs of new cells are dealt
// from a reshuffled deck holding each pair once, so every kDeckSize new
// cells hold each pair exactly once whatever the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// One scenario cell: what identifies a run (and its stored result).
struct ServeCell {
  std::string workload;
  std::string dataset;
  std::size_t k = 0;
  std::uint64_t seed = 0;

  /// Unique text key of the cell.
  std::string key() const;
  /// The km_serve run request line for this cell.
  std::string request_line(std::size_t workers) const;

  friend bool operator==(const ServeCell&, const ServeCell&) = default;
};

struct ServeRequest {
  ServeCell cell;
  bool replay = false;    ///< repeats an earlier cell of this stream
  bool resident = false;  ///< new cell on a dataset this stream touched
};

class ServeStream {
 public:
  static constexpr std::size_t kDatasetN = 4096;
  /// Distinct (workload, k) pairs: six workloads times k in {8, 16, 32}.
  static constexpr std::size_t kDeckSize = 18;

  ServeStream(std::uint64_t seed, std::size_t client);

  ServeRequest next();

 private:
  /// A dataset identity the client has touched: (spec, kind, seed).
  struct Touched {
    std::string kind;
    std::string dataset;
    std::uint64_t seed = 0;
  };

  ServeCell new_cell(bool& resident);
  bool issued(const ServeCell& cell) const;

  km::Rng rng_;
  std::uint64_t seed_base_;
  std::uint64_t datasets_made_ = 0;
  std::size_t block_pos_ = 0;
  std::size_t replay_slot_ = 0;
  std::vector<std::size_t> deck_;  ///< indices into the pair list
  std::size_t deck_pos_ = 0;
  std::vector<ServeCell> cells_;    ///< distinct new cells, issue order
  std::vector<Touched> touched_;    ///< datasets, touch order
};

}  // namespace perfbench
