// Cross-epoch solver workspace: the state a resident driver keeps alive
// between solves so each epoch starts warm instead of from scratch.
//
// One UfpWorkspace owns, behind an opaque pimpl:
//   * the sharded shortest-path cache (detail/sp_cache.hpp) — engine
//     pool and source-shard plan reused across epochs via rebind();
//   * the cross-epoch settled-tree cache (graph/residual_csr.hpp) that
//     lets an epoch's first refresh skip Dijkstra runs whose stored
//     trees are still stamp-valid;
//   * the epoch-start solve arrays a clean epoch reuses.
//
// A workspace is bound at construction to one residual graph, thread
// count and shortest-path kernel, the three things an engine never
// changes. It serves only bounded_ufp's view overload, whose results
// are bitwise identical to bounded_ufp over the instance the view's
// active edges compile to (the config-diff sim oracle enforces this).
// The engine keeps one workspace per world.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/graph.hpp"

namespace tufp {

class ResidualGraph;

namespace detail {
class WorkspaceAccess;
}

class UfpWorkspace {
 public:
  // `graph` must outlive the workspace. num_threads as for
  // effective_num_threads (util/parallel.hpp).
  UfpWorkspace(const ResidualGraph& graph, int num_threads, SpKernel kernel);
  ~UfpWorkspace();
  UfpWorkspace(UfpWorkspace&&) noexcept;
  UfpWorkspace& operator=(UfpWorkspace&&) noexcept;
  UfpWorkspace(const UfpWorkspace&) = delete;
  UfpWorkspace& operator=(const UfpWorkspace&) = delete;

  // Drops all cached state (caches, trees, counters) and keeps the
  // binding. Required whenever the underlying residual graph is reset
  // (its stamp clock restarts).
  void clear();

  // Per-tree reclaim revalidation over the cross-epoch tree cache
  // (graph/residual_csr.hpp survival criterion): drops the stored trees
  // the reclaimed edges can touch, keeps the rest warm through the
  // weight decrease. The engine calls this right after stamping a
  // reclaim batch, with `clock_after` the residual graph's clock once
  // every reclaim is stamped. Returns the kept/dropped tree counts for
  // the deterministic telemetry channel.
  struct ReclaimRevalidation {
    std::int64_t kept = 0;
    std::int64_t dropped = 0;
  };
  ReclaimRevalidation revalidate_warm_trees(std::span<const EdgeId> reclaimed,
                                            std::int64_t clock_after);

 private:
  friend class detail::WorkspaceAccess;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tufp
