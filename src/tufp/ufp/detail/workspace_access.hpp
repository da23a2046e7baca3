// Internal backdoor into UfpWorkspace's pimpl (solver implementation
// files only). Public consumers see ufp/workspace.hpp's opaque surface;
// bounded_ufp's view overload needs the concrete SpCache and solve
// state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/residual_csr.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/workspace.hpp"
#include "tufp/util/assert.hpp"

namespace tufp {

namespace detail {

// Epoch-start solver state cached across solves (bounded_ufp.cpp). The
// arrays are exactly Algorithm 1's line-4 state: y_e = 1/c_e duals, the
// residual working copy (== epoch capacities at solve start) and the
// all-zero iteration stamps. They are only mutated by admissions, so a
// solve that admits nothing leaves them bitwise at their epoch-start
// values — and a later solve whose view shows the same stamp clock over
// the same capacity span may reuse them without the O(m) rebuild. That
// is the clean-epoch fast path: on a saturated steady state the solver
// setup drops from O(m) to O(1).
struct EpochSolveState {
  std::vector<double> y;
  std::vector<double> residual;
  std::vector<std::int64_t> edge_stamp;
  WeightProfile profile;
  double dual_sum = 0.0;

  // Reuse key: valid only at this stamp clock over this exact capacity
  // span of the workspace's own graph. An engine reset() clears the
  // whole workspace, so a restarted clock can never alias a stale key.
  bool valid = false;
  std::int64_t clock = -1;
  const double* cap_data = nullptr;
  std::size_t cap_size = 0;
};

}  // namespace detail

struct UfpWorkspace::Impl {
  Impl(const ResidualGraph& rgraph, int threads, SpKernel sp_kernel)
      : graph(&rgraph), num_threads(threads), kernel(sp_kernel) {}

  // The binding, fixed for the workspace's lifetime.
  const ResidualGraph* graph;
  int num_threads;
  SpKernel kernel;

  // Built by the first solve: constructing an engine allocates no
  // per-thread search engines (O(n) each) before there is a batch.
  std::unique_ptr<detail::SpCache> cache;
  SourceTreeCache trees;
  detail::EpochSolveState solve_state;
};

namespace detail {

class WorkspaceAccess {
 public:
  // The workspace's SpCache rebound to `requests`, with its warm context
  // attached to the workspace's tree cache. The solve must match the
  // workspace's binding.
  static SpCache& bind_cache(UfpWorkspace& ws, const ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             int num_threads, SpKernel kernel) {
    UfpWorkspace::Impl& state = *ws.impl_;
    TUFP_REQUIRE(&rgraph == state.graph,
                 "the view belongs to another residual graph than the "
                 "workspace's");
    TUFP_REQUIRE(num_threads == state.num_threads && kernel == state.kernel,
                 "the solve's num_threads and sp_kernel must match the "
                 "workspace's");
    if (state.cache == nullptr) {
      state.cache = std::make_unique<SpCache>(state.graph->base(), requests,
                                              num_threads, kernel);
      state.cache->set_warm_context(state.graph, &state.trees);
    } else {
      state.cache->rebind(requests);
    }
    return *state.cache;
  }

  static EpochSolveState& solve_state(UfpWorkspace& ws) {
    return ws.impl_->solve_state;
  }
};

}  // namespace detail
}  // namespace tufp
