// Incremental shortest-path cache shared by Bounded-UFP, Bounded-UFP-
// Repeat and BKV (internal header).
//
// All three algorithms need, every iteration, the shortest s_r -> t_r
// path under the current dual weights y for every live request (Alg. 1
// lines 6-8, Alg. 3 lines 4-6). Two facts make caching sound:
//   1. y only ever increases, so path lengths only grow;
//   2. an update touches exactly the edges of one selected path.
// Hence a cached shortest path whose edges were not updated since it was
// computed is still shortest: its own length is unchanged while every
// competitor is at least as long as before. We track a per-edge update
// stamp and recompute only requests whose cached path intersects edges
// stamped after the cache entry.
//
// Capacity-guard invalidation rides the same stamps (DESIGN.md §6): the
// solvers decrement residual capacity on exactly the edges they stamp,
// so an entry's fit status ("does the path still clear the residual
// capacities at this request's demand?") can only change when the entry
// itself goes stale. refresh() therefore evaluates the guard once per
// recomputation and caches it in Entry::fits; the selection loops read a
// bool instead of rescanning the path every iteration.
//
// The invariant callers that pass `residual` must uphold is DIRECTION-
// AGNOSTIC: *every* residual change on an edge — decrement on admission
// AND increment on reclamation (temporal lease expiry, DESIGN.md §10) —
// must be accompanied by a stamp on that edge at the same iteration.
// A decrement without a stamp leaves stale positive verdicts (infeasible
// output); an increment without a stamp leaves stale NEGATIVE verdicts:
// Entry::fits == false outlives the shortage that caused it and the
// request is starved even though its path now fits — the admit → expire →
// re-admit bug class. The solvers below never increase residuals
// mid-run, and the engine reclaims only between epochs — but any future
// driver that reclaims capacity against a live cache must bump the edge
// stamps of every reclaimed edge (pinned by
// test_sp_cache.ReclaimedCapacityNeedsAStampToUnstickNegativeFits).
//
// Recomputation is sharded by source vertex: requests sharing a source
// are answered from one Dijkstra tree (ShortestPathEngine::shortest_tree)
// instead of one search per request. Shards are embarrassingly parallel
// across parallel_for slots (util/parallel.hpp) — each slot drives its
// own engine and writes only the entries of its own sources — and every
// tree is canonical (dijkstra.hpp), so entries are bitwise identical for
// any thread count and any shard schedule; consumers then read them in
// arrival order.
//
// The cache is built for reuse across epochs (ufp/workspace.hpp): it is
// bound to a graph once and rebind()s to each epoch's request batch,
// keeping the engine pool and — when the source sequence is unchanged —
// the source-shard plan (per-entry state always resets: computation
// stamps are epoch-local). With a warm context (set_warm_context) the
// epoch's FIRST refresh additionally consults the cross-epoch
// SourceTreeCache: a stored settled tree whose path edges are unstamped
// since it was computed (graph/residual_csr.hpp §12 argument) serves its
// whole shard without a Dijkstra run, bitwise identical to a fresh
// search — reachable targets from the stored predecessor chain,
// unreachable verdicts from an exhausted radius. Trees survive reclaims
// when the engine's per-tree revalidation proves the reclaimed edges
// cannot touch them (validated_clock; residual_csr.hpp survival
// criterion). Warm consultation is restricted to the first refresh
// because only there the duals are still the epoch-start weights
// y = 1/c_e the trees were stored under.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/arena.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/parallel.hpp"

namespace tufp::detail {

// Margin for "path fits residual capacity" checks under the guard; keeps
// accumulated floating point from rejecting exactly-full edges.
inline constexpr double kFitSlack = 1e-9;

inline bool path_fits(const Path& path, std::span<const double> residual,
                      double demand) {
  for (const EdgeId e : path) {
    if (residual[static_cast<std::size_t>(e)] + kFitSlack < demand) {
      return false;
    }
  }
  return true;
}

class SpCache {
 public:
  struct Entry {
    Path path;
    double length = kInf;
    std::int64_t computed_at = -1;  // stamp epoch of the computation
    bool reachable = true;
    // Capacity-guard status as of the last recomputation; stays valid
    // until the entry goes stale (see header comment). Always true when
    // refresh() runs without a residual vector.
    bool fits = true;
    // Provenance: the last (re)computation was served from the
    // cross-epoch SourceTreeCache rather than a fresh Dijkstra run.
    // Deterministic across thread counts — the warm/miss group split is
    // decided serially and the tree-cache content is a pure function of
    // the epochs so far — so decision traces may emit it on the det
    // channel (obs/trace.hpp).
    bool warm = false;
  };

  // Binds to a graph for the cache's lifetime and to an initial request
  // batch (rebind() repoints later). The request span must stay alive
  // through every refresh()/entry() call until the next rebind.
  // num_threads as for effective_num_threads (1 = serial).
  SpCache(const Graph& graph, std::span<const Request> requests,
          int num_threads, SpKernel kernel = SpKernel::kAuto)
      : graph_(&graph) {
    const int pool = effective_num_threads(num_threads);
    engines_.reserve(static_cast<std::size_t>(pool));
    for (int i = 0; i < pool; ++i) {
      engines_.push_back(std::make_unique<ShortestPathEngine>(graph, kernel));
    }
    scratch_targets_.resize(static_cast<std::size_t>(pool));
    group_of_source_.reset(static_cast<std::size_t>(graph.num_vertices()), -1);
    rebind(requests);
  }

  SpCache(const UfpInstance& instance, int num_threads,
          SpKernel kernel = SpKernel::kAuto)
      : SpCache(instance.graph(), instance.requests(), num_threads, kernel) {}

  // Points the cache at a new request batch. Per-entry state always
  // resets (computation stamps and fit verdicts are epoch-local; the
  // blocked mask they were judged under changes between epochs). The
  // source-shard plan is reused when the new batch's source sequence is
  // identical to the previous one — the common steady-state case the
  // plan_reuses() counter pins — and rebuilt otherwise via a
  // generation-map over the vertex universe (O(batch), not O(V)).
  void rebind(std::span<const Request> requests) {
    requests_ = requests;
    if (entries_.size() != requests.size()) {
      entries_.resize(requests.size());
    }
    for (Entry& e : entries_) {
      e.path.clear();
      e.length = kInf;
      e.computed_at = -1;
      e.reachable = true;
      e.fits = true;
      e.warm = false;
    }
    bool same_plan = requests.size() == plan_sources_.size();
    if (same_plan) {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        if (requests[r].source != plan_sources_[r]) {
          same_plan = false;
          break;
        }
      }
    }
    if (same_plan) {
      ++plan_reuses_;
      return;
    }
    build_plan();
  }

  // Enables cross-epoch warm starts: at each epoch's first refresh the
  // cache consults `trees` for stored settled trees over `graph`'s base
  // edges and stores the trees it computes fresh. Both pointers must
  // outlive the cache (the workspace owns all three).
  void set_warm_context(const ResidualGraph* graph, SourceTreeCache* trees) {
    warm_graph_ = graph;
    warm_trees_ = trees;
  }

  // Ensures entries for `active` are shortest paths under `y`, where
  // edge_stamp[e] is the iteration at which e's weight last changed and
  // `now` the current iteration. With lazy=false everything recomputes.
  // A non-empty `residual` additionally refreshes Entry::fits against the
  // per-request demand. `profile`, when given, lets per-shard engines use
  // the bucket kernel (kAuto); it must be current for `y`. A non-empty
  // `blocked` mask excludes edges from every search. `epoch_start` marks
  // the first refresh of a solve whose weights are the epoch-start duals
  // y = 1/c_e — the only point where the warm context may be consulted.
  void refresh(std::span<const double> y,
               std::span<const std::int64_t> edge_stamp, std::int64_t now,
               std::span<const int> active, bool lazy,
               std::span<const double> residual = {},
               const WeightProfile* profile = nullptr,
               std::span<const std::uint8_t> blocked = {},
               bool epoch_start = false) {
    TUFP_SPAN("sp_refresh");
    stale_count_ = 0;
    tree_runs_last_refresh_ = 0;
    warm_trees_last_refresh_ = 0;
    for (Group& g : groups_) g.stale.clear();
    touched_groups_.clear();
    for (const int r : active) {
      Entry& entry = entries_[static_cast<std::size_t>(r)];
      if (!entry.reachable) continue;  // blocked set is static within a solve
      if (lazy && entry.computed_at >= 0 && is_current(entry, edge_stamp)) {
        continue;
      }
      Group& g = groups_[static_cast<std::size_t>(
          group_of_request_[static_cast<std::size_t>(r)])];
      if (g.stale.empty()) {
        touched_groups_.push_back(
            group_of_request_[static_cast<std::size_t>(r)]);
      }
      g.stale.push_back(r);
      ++stale_count_;
    }
    if (touched_groups_.empty()) return;
    // Counter parity with the always-fresh baseline: a warm-served shard
    // still counts as a tree run and its entries as recomputations, so
    // the sp_computations/sp_tree_runs the solvers report are identical
    // whether or not the warm cache hits (goldens stay byte-stable).
    tree_runs_last_refresh_ =
        static_cast<std::int64_t>(touched_groups_.size());

    // Warm starts need strictly positive epoch-start weights: with a
    // zero weight present the engine falls back to first-discovery
    // parents, which are not canonical and must not be cached.
    const bool warm = epoch_start && warm_graph_ != nullptr &&
                      warm_trees_ != nullptr && profile != nullptr &&
                      profile->all_positive;
    miss_groups_.clear();
    if (warm) {
      // Serial point for the tree cache's generation-reset eviction:
      // store() itself never evicts (it runs on the pool workers), so
      // the limits are enforced here, where the tree set is a
      // deterministic function of the epochs so far — identical for
      // every thread count.
      warm_trees_->enforce_limits();
      for (const int gi : touched_groups_) {
        if (serve_warm_group(groups_[static_cast<std::size_t>(gi)], residual,
                             now)) {
          ++warm_trees_last_refresh_;
          ++warm_trees_served_;
          warm_entries_served_ += static_cast<std::int64_t>(
              groups_[static_cast<std::size_t>(gi)].stale.size());
        } else {
          miss_groups_.push_back(gi);
        }
      }
      if (miss_groups_.empty()) return;
      for (auto& engine : engines_) engine->set_record_settled(true);
    } else {
      miss_groups_.assign(touched_groups_.begin(), touched_groups_.end());
    }
    const std::int64_t warm_clock = warm ? warm_graph_->clock() : 0;

    const auto work = [&](std::size_t idx, int slot) {
      const Group& g = groups_[static_cast<std::size_t>(miss_groups_[idx])];
      // Per-slot scratch keeps the steady-state refresh loop
      // allocation-free.
      std::vector<ShortestPathEngine::TreeTarget>& targets =
          scratch_targets_[static_cast<std::size_t>(slot)];
      targets.clear();
      targets.resize(g.stale.size());
      for (std::size_t i = 0; i < g.stale.size(); ++i) {
        const int r = g.stale[i];
        targets[i].vertex = requests_[static_cast<std::size_t>(r)].target;
        targets[i].path = &entries_[static_cast<std::size_t>(r)].path;
      }
      ShortestPathEngine& engine = *engines_[static_cast<std::size_t>(slot)];
      engine.shortest_tree(y, g.source, targets, blocked, profile);
      if (warm) {
        // Store order across shards is thread-schedule dependent, but
        // every stored tree is canonical, so anything later served from
        // it is bitwise identical to a fresh search either way.
        warm_trees_->store(g.source, engine, warm_clock);
      }
      for (std::size_t i = 0; i < g.stale.size(); ++i) {
        const int r = g.stale[i];
        Entry& entry = entries_[static_cast<std::size_t>(r)];
        entry.length = targets[i].length;
        entry.computed_at = now;
        entry.warm = false;
        if (entry.length >= kInf) {
          entry.reachable = false;
          entry.fits = false;
          entry.path.clear();
          entry.computed_at = std::numeric_limits<std::int64_t>::max();
          continue;
        }
        entry.fits = residual.empty() ||
                     path_fits(entry.path, residual,
                               requests_[static_cast<std::size_t>(r)].demand);
      }
    };

    parallel_for(miss_groups_.size(), static_cast<int>(engines_.size()), work);
    if (warm) {
      for (auto& engine : engines_) engine->set_record_settled(false);
    }
  }

  const Entry& entry(int r) const {
    return entries_[static_cast<std::size_t>(r)];
  }

  // Entries recomputed by the last refresh (the algorithmic
  // shortest-path count the solvers report; warm-served entries count).
  std::size_t recomputed_last_refresh() const { return stale_count_; }

  // Dijkstra tree searches the last refresh accounted for — one per
  // source shard with at least one stale entry (warm-served shards
  // count; see the parity note in refresh()).
  std::int64_t tree_runs_last_refresh() const {
    return tree_runs_last_refresh_;
  }

  // Shard-plan bookkeeping (pinned by test_sp_cache): how often the
  // source-shard plan was rebuilt vs reused across rebind()s.
  std::int64_t plan_builds() const { return plan_builds_; }
  std::int64_t plan_reuses() const { return plan_reuses_; }

  // Cross-epoch warm-start telemetry (never part of solver reports).
  std::int64_t warm_trees_last_refresh() const {
    return warm_trees_last_refresh_;
  }
  std::int64_t warm_trees_served() const { return warm_trees_served_; }
  std::int64_t warm_entries_served() const { return warm_entries_served_; }

 private:
  struct Group {
    VertexId source;
    std::vector<int> stale;  // stale requests this refresh, arrival order
  };

  void build_plan() {
    groups_.clear();
    group_of_request_.resize(requests_.size());
    plan_sources_.resize(requests_.size());
    group_of_source_.advance();
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      const VertexId s = requests_[r].source;
      plan_sources_[r] = s;
      int g = group_of_source_.get(static_cast<std::size_t>(s));
      if (g < 0) {
        g = static_cast<int>(groups_.size());
        group_of_source_.set(static_cast<std::size_t>(s), g);
        groups_.push_back({s, {}});
      }
      group_of_request_[r] = g;
    }
    ++plan_builds_;
  }

  static bool is_current(const Entry& entry,
                         std::span<const std::int64_t> edge_stamp) {
    for (EdgeId e : entry.path) {
      // An edge stamped *at* the entry's epoch was updated after that
      // refresh ran (refresh happens at the top of an iteration, the
      // selected path's update at its bottom), so >= — not > — is the
      // staleness condition.
      if (edge_stamp[static_cast<std::size_t>(e)] >= entry.computed_at) {
        return false;
      }
    }
    return true;
  }

  // Tries to serve every stale target of `g` from the cross-epoch tree
  // cache. All-or-nothing: on any failed validation the whole shard is
  // reported as a miss and recomputed fresh (entries partially filled
  // here are overwritten by the fresh run). Soundness: residual_csr.hpp
  // §12 header — unstamped path edges + no global weight decrease imply
  // a fresh canonical search would reproduce the stored tree bitwise.
  bool serve_warm_group(const Group& g, std::span<const double> residual,
                        std::int64_t now) {
    const SourceTreeCache::Tree* tree = warm_trees_->lookup(g.source);
    if (tree == nullptr) return false;
    // Weight decreases after max(computed, validated) are unaccounted
    // for; a reclaim revalidation that kept this tree bumped
    // validated_clock past the reclaim's last_decrease() tick
    // (residual_csr.hpp survival criterion), so surviving trees keep
    // serving. Per-edge stamp checks below stay against computed_clock:
    // a kept tree contains no reclaimed edge, so any later stamp on a
    // stored path edge is an admission — a weight increase the stored
    // path cannot certify against.
    const std::int64_t valid_through =
        std::max(tree->computed_clock, tree->validated_clock);
    if (warm_graph_->last_decrease() > valid_through) return false;
    const std::span<const std::int64_t> stamps = warm_graph_->stamps();
    for (const int r : g.stale) {
      Entry& entry = entries_[static_cast<std::size_t>(r)];
      const Request& req = requests_[static_cast<std::size_t>(r)];
      const int ti = tree->index_of(req.target);
      if (ti < 0) {
        // Absent target: conclusive only when the stored search
        // exhausted the entire reachable set.
        if (tree->radius < kInf) return false;
        entry.length = kInf;
        entry.reachable = false;
        entry.fits = false;
        entry.warm = true;
        entry.path.clear();
        entry.computed_at = std::numeric_limits<std::int64_t>::max();
        continue;
      }
      // Reconstruct the stored path while validating its stamps.
      entry.path.clear();
      int i = ti;
      VertexId v = req.target;
      while (v != g.source) {
        const EdgeId pe = tree->parent_edge[static_cast<std::size_t>(i)];
        if (stamps[static_cast<std::size_t>(pe)] > tree->computed_clock) {
          return false;
        }
        entry.path.push_back(pe);
        v = tree->parent_vertex[static_cast<std::size_t>(i)];
        i = tree->index_of(v);
        if (i < 0) return false;  // defensive: parents are always settled
      }
      std::reverse(entry.path.begin(), entry.path.end());
      entry.length = tree->dist[static_cast<std::size_t>(ti)];
      entry.reachable = true;
      entry.computed_at = now;
      entry.warm = true;
      entry.fits =
          residual.empty() || path_fits(entry.path, residual, req.demand);
    }
    return true;
  }

  const Graph* graph_;
  std::span<const Request> requests_;
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<ShortestPathEngine>> engines_;
  std::vector<std::vector<ShortestPathEngine::TreeTarget>> scratch_targets_;
  std::vector<Group> groups_;
  std::vector<int> group_of_request_;
  std::vector<VertexId> plan_sources_;  // source signature of the plan
  GenerationMap<int> group_of_source_;
  std::vector<int> touched_groups_;
  std::vector<int> miss_groups_;
  std::size_t stale_count_ = 0;
  std::int64_t tree_runs_last_refresh_ = 0;
  std::int64_t plan_builds_ = 0;
  std::int64_t plan_reuses_ = 0;
  std::int64_t warm_trees_last_refresh_ = 0;
  std::int64_t warm_trees_served_ = 0;
  std::int64_t warm_entries_served_ = 0;
  const ResidualGraph* warm_graph_ = nullptr;
  SourceTreeCache* warm_trees_ = nullptr;
};

}  // namespace tufp::detail
