#include "tufp/lab/solvers.hpp"

#include <algorithm>
#include <stdexcept>

#include "tufp/baselines/bkv.hpp"
#include "tufp/baselines/greedy.hpp"
#include "tufp/baselines/randomized_rounding.hpp"
#include "tufp/lab/upper_bound.hpp"
#include "tufp/lp/branch_and_bound.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/util/assert.hpp"

namespace tufp::lab {

namespace {

// The one definition of "the lab's primal-dual config": identical to the
// config certified bounds are computed under, so every cell is solved
// under the same configuration its bound certifies (and the sweep may
// reuse the certifying run's solution for the `bounded` entry).
BoundedUfpConfig primal_dual_config(const LabSolveConfig& config) {
  BoundedUfpConfig cfg = certifying_solver_config(config.epsilon);
  cfg.sp_kernel = config.sp_kernel;
  return cfg;
}

LabSolve from_solution(const UfpSolution& solution,
                       std::span<const Request> requests) {
  LabSolve out;
  out.ran = true;
  double total = 0.0;
  for (int r = 0; r < static_cast<int>(requests.size()); ++r) {
    if (solution.is_selected(r)) {
      total += requests[static_cast<std::size_t>(r)].value;
    }
  }
  out.value = total;
  out.selected = solution.num_selected();
  return out;
}

LabSolve solve_bounded(const ResidualView& view,
                       std::span<const Request> requests,
                       const LabSolveConfig& config) {
  return from_solution(
      bounded_ufp(view, requests, primal_dual_config(config)).solution,
      requests);
}

LabSolve solve_bkv(const ResidualView& view, std::span<const Request> requests,
                   const LabSolveConfig& config) {
  return from_solution(
      bkv_ufp(view, requests, primal_dual_config(config)).solution, requests);
}

LabSolve solve_greedy_value(const ResidualView& view,
                            std::span<const Request> requests,
                            const LabSolveConfig&) {
  return from_solution(
      greedy_ufp(view.make_instance(requests), GreedyRanking::kByValue),
      requests);
}

LabSolve solve_greedy_density(const ResidualView& view,
                              std::span<const Request> requests,
                              const LabSolveConfig&) {
  return from_solution(
      greedy_ufp(view.make_instance(requests), GreedyRanking::kByDensity),
      requests);
}

LabSolve solve_rounding(const ResidualView& view,
                        std::span<const Request> requests,
                        const LabSolveConfig& config) {
  if (static_cast<int>(requests.size()) > config.rounding_max_requests) {
    return {false, 0.0, 0, false, "gated: needs the exact path LP"};
  }
  RoundingConfig rounding;
  // max_paths only: the hop cutoff would silently drop long paths without
  // flagging truncation, quietly solving a different relaxation.
  rounding.path_enum.max_paths = 800;
  try {
    const RoundingResult result = randomized_rounding_ufp(
        view.make_instance(requests), config.rounding_seed, rounding);
    return from_solution(result.solution, requests);
  } catch (const std::exception&) {
    return {false, 0.0, 0, false, "gated: path enumeration truncated"};
  }
}

LabSolve solve_exact(const ResidualView& view, std::span<const Request> requests,
                     const LabSolveConfig& config) {
  if (static_cast<int>(requests.size()) > config.exact_max_requests) {
    return {false, 0.0, 0, false, "gated: instance too large for B&B"};
  }
  UfpExactOptions options;
  // Tight budgets: the lab wants OPT where it is cheap (staircases, small
  // sparse worlds) and a fast, graceful decline where branching explodes
  // (meshes) — a sweep cell must never stall the whole sweep.
  // max_paths only (it flags truncation and B&B then refuses); a hop
  // cutoff would shrink the search space silently and fake proven
  // optimality below the true OPT.
  options.path_enum.max_paths = 600;
  options.max_nodes = 500'000;
  try {
    const UfpExactResult result =
        solve_ufp_exact(view.make_instance(requests), options);
    LabSolve out = from_solution(result.solution, requests);
    out.proven_optimal = result.proven_optimal;
    if (!result.proven_optimal) out.note = "node cap hit: value is a lower bound";
    return out;
  } catch (const std::exception&) {
    return {false, 0.0, 0, false, "gated: path enumeration truncated"};
  }
}

constexpr LabSolverEntry kCatalogue[] = {
    {"bounded", "Algorithm 1 Bounded-UFP (guard + saturation)", solve_bounded},
    {"bkv", "BKV-style predecessor primal-dual", solve_bkv},
    {"greedy-value", "one-pass greedy, value-descending", solve_greedy_value},
    {"greedy-density", "one-pass greedy, LOS density ranking",
     solve_greedy_density},
    {"rounding", "LP randomized rounding (small instances)", solve_rounding},
    {"exact", "branch-and-bound integral optimum (small instances)",
     solve_exact},
};

}  // namespace

std::span<const LabSolverEntry> solver_catalogue() { return kCatalogue; }

const LabSolverEntry* find_solver(const std::string& name) {
  for (const LabSolverEntry& entry : kCatalogue) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

LabSolve run_solver_on_instance(const LabSolverEntry& entry,
                                const UfpInstance& instance,
                                const LabSolveConfig& config) {
  // Floor at the graph's min capacity so residual >= floor holds on every
  // edge: nothing is blocked and make_instance-backed members stay legal.
  ResidualGraph rgraph(instance.shared_graph(),
                       instance.graph().min_capacity());
  return entry.fn(rgraph.view(), instance.requests(), config);
}

}  // namespace tufp::lab
