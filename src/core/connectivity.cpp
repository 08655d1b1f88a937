#include "core/connectivity.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/detail/sketch_kernels.hpp"
#include "core/detail/sorted.hpp"
#include "core/sketch.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace km {

namespace {

// Every plane is batched per link: one message per (src, dst, superstep)
// holding every entry bound for dst, so the per-message header is paid
// once per link instead of once per label.
constexpr std::uint16_t kSketchTag = 1;  // [label, nnz, (cell pos, cell)*]*
constexpr std::uint16_t kCandidateTag = 7;  // [label, n, edge id*]*
constexpr std::uint16_t kMoeCellTag = 2;   // [label, 1-sparse cell(s)]*
constexpr std::uint16_t kIntervalTag = 3;  // [label, lo, hi, dead]*
constexpr std::uint16_t kLabelQueryTag = 4;  // [vertex]*
constexpr std::uint16_t kLabelReplyTag = 5;  // [label]* in query order
// stats (attempts, failures, alive) then [label, root, finished]*
constexpr std::uint16_t kRootPushTag = 6;
constexpr std::uint16_t kEdgeShipTag = 8;    // baseline: (u, v)
constexpr std::uint16_t kLabelShipTag = 9;   // baseline: labels, owned order

/// An outgoing edge a proxy established for a component this phase.
struct FoundEdge {
  Vertex a = 0;
  Vertex b = 0;
  std::uint64_t weight = 0;
};

/// Both sketch algorithms share one Borůvka driver; the only difference
/// is how a component's proxy obtains an outgoing edge each phase.
enum class EdgeFind {
  kL0Sample,   ///< ℓ₀-sample any crossing edge (connectivity)
  kMoeSearch,  ///< exact min-key crossing edge via threshold search (MST)
};

DistributedMstResult run_sketch_boruvka(const Graph* ug,
                                        const WeightedGraph* wg,
                                        const VertexPartition& part,
                                        Engine& engine,
                                        const SketchConnectivityConfig& cfg) {
  const EdgeFind find_mode = wg ? EdgeFind::kMoeSearch : EdgeFind::kL0Sample;
  const std::size_t n = wg ? wg->num_vertices() : ug->num_vertices();
  const std::size_t k = engine.k();
  if (part.n() != n || part.k() != k) {
    throw std::invalid_argument(
        "sketch connectivity: partition does not match graph/k");
  }
  if (cfg.threshold_arity < 2) {
    throw std::invalid_argument(
        "sketch connectivity: threshold_arity must be >= 2");
  }
  const EdgeIdCodec codec(n);
  const std::uint32_t id_bits = codec.id_bits();
  const std::size_t max_phases =
      cfg.max_phases != 0
          ? cfg.max_phases
          : 4 * std::size_t{ceil_log2(std::max<std::uint64_t>(n, 2))} + 16;
  // MST keys live in 64 - id_bits bits above the edge id, and the search
  // arithmetic needs maxkey + 1 to not wrap: cap keys below 2^63.  Past
  // 2^31 vertices there is no headroom left for any weight bits (and the
  // shift below would be UB), so refuse up front.
  if (find_mode == EdgeFind::kMoeSearch && id_bits >= 63) {
    throw std::invalid_argument(
        "sketch_mst: graph too large for the 63-bit weight-key budget");
  }
  const std::uint64_t max_weight_allowed =
      id_bits >= 63 ? 0 : (std::uint64_t{1} << (63 - id_bits)) - 1;

  DistributedMstResult result;
  result.fragment_of.assign(n, 0);
  std::vector<std::vector<WeightedEdge>> emitted(k);
  std::vector<std::size_t> phases_by_machine(k, 0);

  // Balanced assignment: stratify labels by their rank inside their home
  // machine's owned list, so machine m's hosted labels spread over
  // proxies in lockstep — at phase 0 (labels = owned vertices) every
  // (machine, proxy) link carries exactly floor/ceil(|owned|/k)
  // sketches, where a hashed assignment pays a binomial tail of ~1.8x
  // the mean on some link.  The partition is shared knowledge, so every
  // host of a label computes the same proxy without communication; the
  // hashed flavor stays available for experiments.
  std::vector<std::uint32_t> rank_of;
  if (cfg.balanced_proxies) {
    rank_of.assign(n, 0);
    for (std::size_t m = 0; m < k; ++m) {
      const auto& owned = part.owned(m);
      for (std::size_t i = 0; i < owned.size(); ++i) {
        rank_of[owned[i]] = static_cast<std::uint32_t>(i);
      }
    }
  }
  const auto proxy_of = [&, proxy_seed = mix64(cfg.seed, 0x9c'e7'0a'17ULL)](
                            std::uint32_t label) {
    return cfg.balanced_proxies
               ? static_cast<std::size_t>(rank_of[label] % k)
               : static_cast<std::size_t>(hash_vertex(proxy_seed, label) % k);
  };

  const std::uint32_t arity = cfg.threshold_arity;

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = part.owned(self);
    std::unordered_map<Vertex, std::size_t> index_of;
    index_of.reserve(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) index_of[owned[i]] = i;

    const auto neighbors = [&](Vertex v) {
      return wg ? wg->neighbors(v) : ug->neighbors(v);
    };

    // frag[i] = component label of owned[i]; a label in `finished` heads
    // a complete connected component and never changes again.
    std::vector<std::uint32_t> frag(owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) frag[i] = owned[i];
    std::unordered_set<std::uint32_t> finished;

    if (find_mode == EdgeFind::kL0Sample && cfg.batch_local_phases) {
      // Batch every purely machine-local Borůvka phase into superstep
      // zero: union-find over the locally-visible edges (both endpoints
      // owned), then label each local component by its minimum member —
      // globally unique because ownership partitions the vertices.
      UnionFind uf(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        for (const Vertex nb : neighbors(owned[i])) {
          const auto it = index_of.find(nb);
          if (it != index_of.end()) uf.unite(i, it->second);
        }
      }
      std::unordered_map<std::size_t, Vertex> min_member;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        auto [it, fresh] = min_member.try_emplace(uf.find(i), owned[i]);
        if (!fresh) it->second = std::min(it->second, owned[i]);
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        frag[i] = min_member.at(uf.find(i));
      }
    }

    // MOE mode: per-vertex incident (key, sign) lists, built once.  The
    // key packs (weight, edge id) so the key order is exactly
    // mst_edge_less and every key is unique.
    std::vector<std::vector<std::pair<std::uint64_t, std::int8_t>>> incident;
    std::uint64_t max_key = 0;
    if (find_mode == EdgeFind::kMoeSearch) {
      incident.resize(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const Vertex v = owned[i];
        const auto ns = wg->neighbors(v);
        const auto ws = wg->weights(v);
        incident[i].reserve(ns.size());
        for (std::size_t j = 0; j < ns.size(); ++j) {
          if (ws[j] > max_weight_allowed) {
            throw std::invalid_argument(
                "sketch_mst: edge weight exceeds the 63-bit key budget");
          }
          const std::uint64_t key =
              (ws[j] << id_bits) | codec.encode(v, ns[j]);
          incident[i].emplace_back(
              key, static_cast<std::int8_t>(EdgeIdCodec::sign_for(v, ns[j])));
          max_key = std::max(max_key, key);
        }
      }
      max_key = ctx.all_reduce_max(max_key);
    }
    // s-ary refinements until an interval of max_key + 1 keys pins to
    // one: each step divides the length by arity, rounding up.
    std::uint32_t refinements = 0;
    if (find_mode == EdgeFind::kMoeSearch) {
      for (std::uint64_t len = max_key + 1; len > 1;
           len = (len + arity - 1) / arity) {
        ++refinements;
      }
    }
    // Subinterval boundaries of [lo, hi]: bound(j) for j = 1..arity-1,
    // with bound(0) = lo - 1 and bound(arity) = hi implied.  Sizes
    // differ by at most one, so lengths shrink by ceil-division.
    const auto split_bound = [&](std::uint64_t lo, std::uint64_t len,
                                 std::uint32_t j) {
      const auto wide = static_cast<unsigned __int128>(len) * j;
      return lo + static_cast<std::uint64_t>((wide + arity - 1) / arity) - 1;
    };

    // One reusable Writer per destination; flush() sends every non-empty
    // one under the plane's tag (send() consumes the contents, so the
    // writers are clean for the next plane).
    std::vector<Writer> outbox(k);
    const auto flush = [&](std::uint16_t tag) {
      for (std::size_t dst = 0; dst < k; ++dst) {
        if (dst != self && outbox[dst].size_bytes() != 0) {
          ctx.send(dst, tag, outbox[dst]);
        }
      }
    };

    std::uint32_t rows = cfg.adapt_rows
                             ? std::clamp(cfg.rows, cfg.min_rows, cfg.max_rows)
                             : cfg.rows;

    std::size_t phase = 0;
    bool done = false;
    while (!done) {
      if (phase >= max_phases) {
        throw std::runtime_error(
            "sketch boruvka: phase budget exhausted without convergence");
      }
      const std::uint64_t phase_seed =
          mix64(cfg.seed, 0xB0'12'34'00ULL + phase);
      const std::uint64_t z = sketch_fingerprint_base(phase_seed);

      // ---- Find stage: outgoing edge candidates per hosted component.
      // Connectivity harvests every distinct edge the fold's rows
      // recover (more candidates -> more components hook per phase);
      // the MST search pins exactly one, the MOE. ----
      std::unordered_map<std::uint32_t, std::vector<FoundEdge>> found;
      std::unordered_set<std::uint32_t> finished_here;         // proxy side
      // Machines hosting each label proxied here, recorded from the
      // first up-exchange of the phase; the root push goes only to them.
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> hosts;
      bool any_alive = false;                                  // proxy side
      std::uint64_t attempts = 0;                              // proxy side
      std::uint64_t failures = 0;                              // proxy side

      if (find_mode == EdgeFind::kL0Sample) {
        const L0SketchShape shape{
            .id_bits = id_bits, .rows = rows, .seed = phase_seed};
        // Pre-aggregate per (machine, label): summing the sketches of
        // every locally-hosted member costs nothing (linearity), and it
        // is what keeps the per-link load at Õ(n/k²) — without it, a
        // nearly-merged graph funnels one sketch per *vertex* into a
        // single proxy, Θ(n/k) per link.
        std::unordered_map<std::uint32_t, L0Sketch> partial;
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const std::uint32_t c = frag[i];
          if (finished.contains(c)) continue;
          const Vertex v = owned[i];
          L0Sketch& sketch = partial.try_emplace(c, shape).first->second;
          for (const Vertex nb : neighbors(v)) {
            sketch.add(codec.encode(v, nb), EdgeIdCodec::sign_for(v, nb));
          }
        }
        // Sliced two-stage aggregation.  A single-proxy fold pays the
        // per-link *max*, not the mean: which labels a machine hosts is
        // random, so some (host, proxy) link carries 1.6-5x the average
        // sketch load and the measured rounds flatten away from n/k².
        // Instead every nonzero cell travels to a holder hashed from
        // (label, cell position) — cell-granularity balls-into-bins, so
        // every link carries (hosted bits)/k to within a few percent no
        // matter which labels a machine hosts or which cells of the
        // cascade are dense.  All copies of one (label, position) cell
        // hash to the same holder, so each holder folds the true cells
        // of the folded sketch (by linearity the fold of the copies is
        // the cell of the fold).  Holders then recover candidate
        // support members from their folded cells and forward only the
        // ids, so reassembly costs a few varints per label instead of
        // a second sketch-sized hop.  Hosts always send the proxy an
        // entry (possibly empty): it doubles as the host census for
        // the root push.
        const std::uint32_t levels = shape.levels();
        const std::size_t ncells_total = std::size_t{rows} * levels;
        const std::uint64_t universe =
            id_bits >= 64 ? 0 : (std::uint64_t{1} << id_bits);
        const std::uint64_t stripe_seed = mix64(phase_seed, 0x57'81'9eULL);
        const auto holder_of = [&](std::uint32_t c, std::size_t pos) {
          return static_cast<std::size_t>(
              mix64(mix64(stripe_seed, c), static_cast<std::uint64_t>(pos)) %
              k);
        };
        // Folded (position, cell) pairs this machine holds per label.
        std::unordered_map<std::uint32_t,
                           std::vector<std::pair<std::uint32_t, SketchCell>>>
            slice_fold;
        const auto fold_into = [&](std::uint32_t c, std::uint32_t pos,
                                   const SketchCell& cell) {
          auto& acc = slice_fold[c];
          for (auto& [p, folded] : acc) {
            if (p == pos) {
              folded.merge(cell);
              return;
            }
          }
          acc.emplace_back(pos, cell);
        };
        // One label's nonzero cells as (holder, position, cell), sorted
        // by holder then position, and the holders it writes to (plus
        // its proxy, which always gets an entry) — O(cells) per label,
        // not O(k).
        struct Slice {
          std::size_t holder;
          std::uint32_t pos;
          SketchCell cell;
        };
        std::vector<Slice> sliced;
        std::vector<std::size_t> dsts;
        for (const std::uint32_t c : detail::sorted_keys(partial)) {
          const L0Sketch& sketch = partial.at(c);
          const std::size_t proxy = proxy_of(c);
          if (proxy == self) {
            hosts[c].push_back(static_cast<std::uint32_t>(self));
          }
          sliced.clear();
          dsts.assign(1, proxy);
          for (std::size_t pos = 0; pos < ncells_total; ++pos) {
            const SketchCell cell = sketch.cell(pos / levels, pos % levels);
            if (cell.is_zero()) continue;
            const std::size_t holder = holder_of(c, pos);
            sliced.push_back({holder, static_cast<std::uint32_t>(pos), cell});
            dsts.push_back(holder);
          }
          // Positions were pushed ascending, so a stable sort by holder
          // keeps each holder's cells in position order.
          std::stable_sort(sliced.begin(), sliced.end(),
                           [](const Slice& a, const Slice& b) {
                             return a.holder < b.holder;
                           });
          std::sort(dsts.begin(), dsts.end());
          dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
          auto run = sliced.begin();
          for (const std::size_t dst : dsts) {
            const auto run_end = std::find_if(
                run, sliced.end(),
                [dst](const Slice& s) { return s.holder != dst; });
            if (dst == self) {
              for (auto it = run; it != run_end; ++it) {
                fold_into(c, it->pos, it->cell);
              }
            } else {
              Writer& w = outbox[dst];
              w.put_varint(c);
              w.put_varint(static_cast<std::uint64_t>(run_end - run));
              for (auto it = run; it != run_end; ++it) {
                w.put_varint(it->pos);
                it->cell.serialize(w);
              }
            }
            run = run_end;
          }
        }
        partial.clear();
        flush(kSketchTag);
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          while (!r.done()) {
            const auto c = static_cast<std::uint32_t>(r.get_varint());
            const std::uint64_t nnz = r.get_varint();
            if (proxy_of(c) == self) hosts[c].push_back(msg.src);
            for (std::uint64_t t = 0; t < nnz; ++t) {
              const auto pos = static_cast<std::uint32_t>(r.get_varint());
              fold_into(c, pos, SketchCell::deserialize(r));
            }
          }
        }
        // Candidate forward: recover from the folded stripes, ship ids.
        // A label with no nonzero stripe anywhere has an empty folded
        // sketch (internal edges cancelled in the fold), so absence of
        // reports is the emptiness certificate.
        std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> cand_ids;
        std::unordered_set<std::uint32_t> nonzero_marks;  // proxy side
        for (const std::uint32_t c : detail::sorted_keys(slice_fold)) {
          bool nonzero = false;
          std::vector<std::uint64_t> ids;
          for (const auto& [pos, cell] : slice_fold.at(c)) {
            if (cell.is_zero()) continue;
            nonzero = true;
            if (const auto id = cell.recover(z, universe)) ids.push_back(*id);
          }
          if (!nonzero) continue;
          const std::size_t proxy = proxy_of(c);
          if (proxy == self) {
            nonzero_marks.insert(c);
            auto& acc = cand_ids[c];
            acc.insert(acc.end(), ids.begin(), ids.end());
          } else {
            Writer& w = outbox[proxy];
            w.put_varint(c);
            w.put_varint(ids.size());
            for (const std::uint64_t id : ids) w.put_varint(id);
          }
        }
        slice_fold.clear();
        flush(kCandidateTag);
        for (const Message& msg : ctx.exchange()) {
          Reader r(msg.payload);
          while (!r.done()) {
            const auto c = static_cast<std::uint32_t>(r.get_varint());
            nonzero_marks.insert(c);
            const std::uint64_t m = r.get_varint();
            auto& acc = cand_ids[c];
            for (std::uint64_t t = 0; t < m; ++t) {
              acc.push_back(r.get_varint());
            }
          }
        }
        for (const std::uint32_t c : detail::sorted_keys(hosts)) {
          if (!nonzero_marks.contains(c)) {
            finished_here.insert(c);
            continue;
          }
          any_alive = true;
          ++attempts;
          auto& ids = cand_ids[c];
          std::sort(ids.begin(), ids.end());
          ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
          std::vector<FoundEdge> cand;
          for (const std::uint64_t id : ids) {
            const auto [a, b] = codec.decode(id);
            if (a < b && b < n) cand.push_back(FoundEdge{a, b, 0});
            if (cand.size() == 4) break;  // bound the label-query bits
          }
          // A recovery-free fold leaves the component idle this phase
          // (the next phase retries with fresh hashes) and feeds the
          // row auto-sizing below.
          if (cand.empty()) {
            ++failures;
          } else {
            found[c] = std::move(cand);
          }
        }
      } else {
        // s-ary threshold search.  Machines keep the current [lo, hi]
        // per hosted label from the proxy's pushes; iteration 0 spans
        // the full key range (the emptiness test), the next
        // `refinements` iterations each shrink the interval by `arity`,
        // and the final iteration's cell is exactly 1-sparse and
        // recovers the MOE.
        struct Interval {
          std::uint64_t lo = 0, hi = 0;
          bool dead = false;
        };
        std::unordered_map<std::uint32_t, Interval> ivals;       // machine
        std::unordered_map<std::uint32_t, Interval> proxy_ival;  // proxy
        for (std::size_t i = 0; i < owned.size(); ++i) {
          const std::uint32_t c = frag[i];
          if (!finished.contains(c)) {
            ivals.try_emplace(c, Interval{0, max_key, false});
          }
        }
        // Per-phase fingerprint powers via the shared windowed table
        // (bit-identical to powmod61), one lookup per edge.
        const auto& pows = detail::fingerprint_powers(
            z, static_cast<std::uint32_t>(std::bit_width(max_key) + 1));
        std::vector<std::vector<std::uint64_t>> fpc(owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i) {
          if (finished.contains(frag[i])) continue;
          fpc[i].reserve(incident[i].size());
          for (const auto& entry : incident[i]) {
            fpc[i].push_back(pows.pow(entry.first));
          }
        }
        const std::uint32_t iterations = 1 + refinements + 1;
        std::vector<std::uint64_t> bounds;
        for (std::uint32_t t = 0; t < iterations; ++t) {
          const bool refining = t >= 1 && t <= refinements;
          // Cells per up-entry this iteration: the emptiness test and
          // the final recovery send one, a refinement sends arity-1
          // prefix cells (labels already pinned to one key skip the
          // iteration entirely, on both sides).
          const std::uint32_t ncells = refining ? arity - 1 : 1;
          // Up: restricted cells pre-aggregated per (machine, label) —
          // one entry per hosted component, not per vertex, keeping the
          // per-link load Õ(n/k²) as components grow across machines.
          std::unordered_map<std::uint32_t, std::vector<SketchCell>> partial;
          for (std::size_t i = 0; i < owned.size(); ++i) {
            const std::uint32_t c = frag[i];
            if (finished.contains(c)) continue;
            const auto iv = ivals.find(c);
            if (iv == ivals.end() || iv->second.dead) continue;
            const std::uint64_t lo = iv->second.lo;
            const std::uint64_t len = iv->second.hi - lo + 1;
            if (refining && len == 1) continue;
            bounds.clear();
            if (refining) {
              for (std::uint32_t j = 1; j < arity; ++j) {
                bounds.push_back(split_bound(lo, len, j));
              }
            } else {
              bounds.push_back(t == 0 ? max_key : lo);
            }
            auto& cells = partial[c];
            cells.resize(ncells);
            for (std::size_t j = 0; j < incident[i].size(); ++j) {
              const auto& [key, sign] = incident[i][j];
              for (std::size_t bi = 0; bi < bounds.size(); ++bi) {
                if (key <= bounds[bi]) {
                  cells[bi].add_prepared(key, sign, fpc[i][j]);
                }
              }
            }
          }
          std::unordered_map<std::uint32_t, std::vector<SketchCell>> folded;
          const auto fold = [&](std::uint32_t c,
                                const std::vector<SketchCell>& cells) {
            auto& acc = folded[c];
            acc.resize(ncells);
            for (std::uint32_t j = 0; j < ncells; ++j) acc[j].merge(cells[j]);
          };
          for (const std::uint32_t c : detail::sorted_keys(partial)) {
            const std::size_t proxy = proxy_of(c);
            if (proxy == self) {
              fold(c, partial.at(c));
              if (t == 0) {
                hosts[c].push_back(static_cast<std::uint32_t>(self));
              }
            } else {
              Writer& w = outbox[proxy];
              w.put_varint(c);
              for (const SketchCell& cell : partial.at(c)) cell.serialize(w);
            }
          }
          flush(kMoeCellTag);
          std::vector<SketchCell> incoming(ncells);
          for (const Message& msg : ctx.exchange()) {
            Reader r(msg.payload);
            while (!r.done()) {
              const auto c = static_cast<std::uint32_t>(r.get_varint());
              for (std::uint32_t j = 0; j < ncells; ++j) {
                incoming[j] = SketchCell::deserialize(r);
              }
              fold(c, incoming);
              if (t == 0) hosts[c].push_back(msg.src);
            }
          }
          // Proxy verdicts; `refined` lists the labels whose interval
          // changed and must be pushed back down.
          std::vector<std::uint32_t> refined;
          for (const std::uint32_t c : detail::sorted_keys(folded)) {
            const auto& cells = folded.at(c);
            auto& iv = proxy_ival[c];
            if (t == 0) {
              if (cells[0].is_zero()) {
                iv.dead = true;
                finished_here.insert(c);
                refined.push_back(c);
              } else {
                any_alive = true;
                iv.lo = 0;
                iv.hi = max_key;
              }
            } else if (refining) {
              const std::uint64_t lo = iv.lo;
              const std::uint64_t len = iv.hi - lo + 1;
              // The MOE lies in the leftmost subinterval whose prefix
              // cell is nonzero (prefixes are nested, and a nonempty
              // restriction is nonzero whp by the fingerprint).
              std::uint64_t new_lo = lo;
              std::uint64_t new_hi = iv.hi;
              for (std::uint32_t j = 1; j < arity; ++j) {
                const std::uint64_t b = split_bound(lo, len, j);
                if (!cells[j - 1].is_zero()) {
                  new_hi = b;
                  break;
                }
                new_lo = b + 1;
              }
              iv.lo = new_lo;
              iv.hi = new_hi;
              refined.push_back(c);
            } else {
              // Final iteration: [lo, hi] pinned the MOE key, the
              // restricted vector is 1-sparse, recovery is exact.
              const auto key = cells[0].recover(z, max_key + 1);
              if (!key) {
                throw std::logic_error(
                    "sketch_mst: 1-sparse recovery failed at a pinned MOE");
              }
              const auto [a, b] =
                  codec.decode(*key &
                               ((std::uint64_t{1} << id_bits) - 1));
              found[c] = {FoundEdge{a, b, *key >> id_bits}};
            }
          }
          // Down: push changed intervals to the hosting machines (none
          // needed after the final iteration, but the exchange itself
          // stays lockstep for every machine).  A label declared dead
          // at t = 0 is announced once; hosts then stop sending it.
          if (t + 1 < iterations) {
            std::sort(refined.begin(), refined.end());
            for (const std::uint32_t c : refined) {
              // Every changed interval is pushed, including one that
              // just pinned to a single key: hosts need the final
              // [lo, lo] to build the recovery cell, and both sides
              // skip pinned labels in the remaining refinements.
              const Interval& iv = proxy_ival.at(c);
              auto hit = hosts.find(c);
              if (hit == hosts.end()) continue;
              for (const std::uint32_t m : hit->second) {
                if (m == self) {
                  ivals[c] = iv;
                  continue;
                }
                Writer& w = outbox[m];
                w.put_varint(c);
                w.put_varint(iv.lo);
                w.put_varint(iv.hi);
                w.put_u8(iv.dead ? 1 : 0);
              }
            }
            flush(kIntervalTag);
          }
          if (t + 1 < iterations) {
            for (const Message& msg : ctx.exchange()) {
              Reader r(msg.payload);
              while (!r.done()) {
                const auto c = static_cast<std::uint32_t>(r.get_varint());
                Interval iv;
                iv.lo = r.get_varint();
                iv.hi = r.get_varint();
                iv.dead = r.get_u8() != 0;
                ivals[c] = iv;
              }
            }
          }
        }
      }

      // ---- Label queries: who is on each end of the found edges? ----
      // Batched per home machine; replies mirror the query order, so a
      // reply message is bare labels.
      std::unordered_map<Vertex, std::uint32_t> vertex_label;
      std::vector<std::vector<Vertex>> asked(k);
      {
        std::unordered_set<Vertex> query;
        for (const std::uint32_t c : detail::sorted_keys(found)) {
          for (const FoundEdge& edge : found.at(c)) {
            query.insert(edge.a);
            query.insert(edge.b);
          }
        }
        for (const Vertex v : detail::sorted_keys(query)) {
          const std::size_t home = part.home(v);
          if (home == self) {
            vertex_label[v] = frag[index_of.at(v)];
          } else {
            asked[home].push_back(v);
            outbox[home].put_varint(v);
          }
        }
        flush(kLabelQueryTag);
      }
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        Writer& w = outbox[msg.src];
        while (!r.done()) {
          const auto v = static_cast<Vertex>(r.get_varint());
          w.put_varint(frag[index_of.at(v)]);
        }
      }
      flush(kLabelReplyTag);
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        for (const Vertex v : asked[msg.src]) {
          vertex_label[v] = static_cast<std::uint32_t>(r.get_varint());
        }
      }

      // ---- Min-label hooking: a component hooks across the smallest
      // sampled neighbour whose label is below its own.  Every hook
      // edge points strictly down in label order, so the hook graph is
      // acyclic, and the cluster-maximum label with a successful
      // sample always hooks — with several candidates per fold the
      // merge rate beats a coin-flip rule without any coin exchange.
      std::unordered_map<std::uint32_t, std::uint32_t> new_root;
      for (const std::uint32_t c : detail::sorted_keys(found)) {
        const FoundEdge* best_edge = nullptr;
        std::uint32_t best_other = 0;
        for (const FoundEdge& edge : found.at(c)) {
          const std::uint32_t la = vertex_label.at(edge.a);
          const std::uint32_t lb = vertex_label.at(edge.b);
          if (la != c && lb != c) continue;  // stale sample: skip safely
          const std::uint32_t other = la == c ? lb : la;
          if (other == c) continue;
          const bool hook = other < c;
          if (hook) {
            if (best_edge == nullptr || other < best_other) {
              best_edge = &edge;
              best_other = other;
            }
          }
        }
        if (best_edge != nullptr) {
          new_root[c] = best_other;
          if (find_mode == EdgeFind::kMoeSearch) {
            emitted[self].push_back(
                WeightedEdge{std::min(best_edge->a, best_edge->b),
                             std::max(best_edge->a, best_edge->b),
                             best_edge->weight});
          }
        }
      }

      // ---- Root push: proxies push (label, root, finished) to the
      // recorded hosts, only for labels that changed; every machine's
      // sampling stats ride in the same superstep, so termination needs
      // no separate all-reduce and roots need no query round-trip. ----
      std::unordered_map<std::uint32_t, std::pair<std::uint32_t, bool>> push;
      {
        std::vector<std::vector<std::uint32_t>> tri(k);  // flat (c,root,fin)
        for (const std::uint32_t c : detail::sorted_keys(hosts)) {
          const auto it = new_root.find(c);
          const std::uint32_t root = it == new_root.end() ? c : it->second;
          const bool fin = finished_here.contains(c);
          if (root == c && !fin) continue;
          for (const std::uint32_t m : hosts.at(c)) {
            if (m == self) {
              push[c] = {root, fin};
            } else {
              tri[m].push_back(c);
              tri[m].push_back(root);
              tri[m].push_back(fin ? 1 : 0);
            }
          }
        }
        const bool have_stats = attempts != 0 || failures != 0 || any_alive;
        for (std::size_t dst = 0; dst < k; ++dst) {
          if (dst == self || (tri[dst].empty() && !have_stats)) continue;
          Writer& w = outbox[dst];
          w.put_varint(attempts);
          w.put_varint(failures);
          w.put_u8(any_alive ? 1 : 0);
          for (std::size_t j = 0; j < tri[dst].size(); j += 3) {
            w.put_varint(tri[dst][j]);
            w.put_varint(tri[dst][j + 1]);
            w.put_u8(tri[dst][j + 2] != 0 ? 1 : 0);
          }
          ctx.send(dst, kRootPushTag, w);
        }
      }
      std::uint64_t g_attempts = attempts;
      std::uint64_t g_failures = failures;
      bool g_alive = any_alive;
      for (const Message& msg : ctx.exchange()) {
        Reader r(msg.payload);
        g_attempts += r.get_varint();
        g_failures += r.get_varint();
        g_alive = r.get_u8() != 0 || g_alive;
        while (!r.done()) {
          const auto c = static_cast<std::uint32_t>(r.get_varint());
          const auto root = static_cast<std::uint32_t>(r.get_varint());
          const bool fin = r.get_u8() != 0;
          push[c] = {root, fin};
        }
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        const std::uint32_t c = frag[i];
        if (finished.contains(c)) continue;
        const auto it = push.find(c);
        if (it == push.end()) continue;  // unchanged this phase
        frag[i] = it->second.first;
        if (it->second.second) finished.insert(c);  // fin implies root == c
      }
      // Row auto-sizing from the global failure rate; identical inputs
      // on every machine keep the next phase's shapes agreed.
      if (find_mode == EdgeFind::kL0Sample && cfg.adapt_rows &&
          g_attempts != 0) {
        if (g_failures * 4 >= g_attempts) {
          rows = std::min(rows + 1, cfg.max_rows);
        } else if (g_failures * 16 <= g_attempts) {
          rows = std::max(rows - 1, cfg.min_rows);
        }
      }

      ++phase;
      done = !g_alive;
    }

    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.fragment_of[owned[i]] = frag[i];
    }
    phases_by_machine[self] = phase;
  };

  result.metrics = engine.run(program);
  for (auto& edges : emitted) {
    result.edges.insert(result.edges.end(), edges.begin(), edges.end());
  }
  std::sort(result.edges.begin(), result.edges.end(), mst_edge_less);
  // Equal-coin hooking can let two proxies contract the same physical
  // edge in one phase (each from its own component's side); the MSF edge
  // set is the deduplicated union.
  result.edges.erase(std::unique(result.edges.begin(), result.edges.end(),
                                 [](const WeightedEdge& x,
                                    const WeightedEdge& y) {
                                   return x.u == y.u && x.v == y.v &&
                                          x.weight == y.weight;
                                 }),
                     result.edges.end());
  for (const auto& e : result.edges) result.total_weight += e.weight;
  result.phases = phases_by_machine.empty() ? 0 : phases_by_machine[0];
  return result;
}

}  // namespace

DistributedComponentsResult sketch_connectivity(
    const Graph& g, const VertexPartition& partition, Engine& engine,
    const SketchConnectivityConfig& config) {
  auto boruvka =
      run_sketch_boruvka(&g, nullptr, partition, engine, config);
  DistributedComponentsResult result;
  result.labels = std::move(boruvka.fragment_of);
  result.phases = boruvka.phases;
  result.metrics = std::move(boruvka.metrics);
  const std::unordered_set<std::uint32_t> distinct(result.labels.begin(),
                                                   result.labels.end());
  result.num_components = g.num_vertices() == 0 ? 0 : distinct.size();
  return result;
}

DistributedMstResult sketch_mst(const WeightedGraph& g,
                                const VertexPartition& partition,
                                Engine& engine,
                                const SketchConnectivityConfig& config) {
  return run_sketch_boruvka(nullptr, &g, partition, engine, config);
}

DistributedComponentsResult centralized_connectivity_baseline(
    const Graph& g, const VertexPartition& partition, Engine& engine) {
  const std::size_t n = g.num_vertices();
  const std::size_t k = engine.k();
  if (partition.n() != n || partition.k() != k) {
    throw std::invalid_argument(
        "centralized_connectivity_baseline: partition mismatch");
  }

  DistributedComponentsResult result;
  result.labels.assign(n, 0);
  result.phases = 1;

  const Program program = [&](MachineContext& ctx) {
    const std::size_t self = ctx.id();
    const auto& owned = partition.owned(self);

    // Ship every locally-held edge to the coordinator (each edge once,
    // from its min endpoint's home): per-link load Θ(m/k · log n).
    std::vector<std::pair<Vertex, Vertex>> local;
    for (const Vertex u : owned) {
      for (const Vertex v : g.neighbors(u)) {
        if (u >= v) continue;
        if (self == 0) {
          local.emplace_back(u, v);
        } else {
          Writer w;
          w.put_varint(u);
          w.put_varint(v);
          ctx.send(0, kEdgeShipTag, w);
        }
      }
    }
    std::vector<Message> inbox = ctx.exchange();
    if (self == 0) {
      UnionFind uf(n);
      for (const auto& [u, v] : local) uf.unite(u, v);
      for (const Message& msg : inbox) {
        Reader r(msg.payload);
        const auto u = static_cast<Vertex>(r.get_varint());
        const auto v = static_cast<Vertex>(r.get_varint());
        uf.unite(u, v);
      }
      // Scatter labels, one message per machine, in owned-vertex order:
      // per-link load Θ(n/k · log n).
      for (std::size_t m = 1; m < k; ++m) {
        Writer w;
        for (const Vertex v : partition.owned(m)) {
          w.put_varint(uf.find(v));
        }
        ctx.send(m, kLabelShipTag, w);
      }
      for (const Vertex v : owned) result.labels[v] = uf.find(v);
    }
    inbox = ctx.exchange();
    if (self != 0) {
      if (inbox.size() != 1 && !owned.empty()) {
        throw std::logic_error("baseline: expected one label message");
      }
      if (!inbox.empty()) {
        Reader r(inbox.front().payload);
        for (const Vertex v : owned) {
          result.labels[v] = static_cast<std::uint32_t>(r.get_varint());
        }
      }
    }
  };

  result.metrics = engine.run(program);
  const std::unordered_set<std::uint32_t> distinct(result.labels.begin(),
                                                   result.labels.end());
  result.num_components = n == 0 ? 0 : distinct.size();
  return result;
}

}  // namespace km
