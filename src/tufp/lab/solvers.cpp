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
                       const UfpInstance& instance) {
  LabSolve out;
  out.ran = true;
  double total = 0.0;
  for (int r = 0; r < instance.num_requests(); ++r) {
    if (solution.is_selected(r)) total += instance.request(r).value;
  }
  out.value = total;
  out.selected = solution.num_selected();
  return out;
}

LabSolve solve_bounded(const UfpInstance& instance,
                       const LabSolveConfig& config) {
  return from_solution(
      bounded_ufp(instance, primal_dual_config(config)).solution, instance);
}

LabSolve solve_bkv(const UfpInstance& instance, const LabSolveConfig& config) {
  return from_solution(bkv_ufp(instance, primal_dual_config(config)).solution,
                       instance);
}

LabSolve solve_greedy_value(const UfpInstance& instance,
                            const LabSolveConfig&) {
  return from_solution(greedy_ufp(instance, GreedyRanking::kByValue),
                       instance);
}

LabSolve solve_greedy_density(const UfpInstance& instance,
                              const LabSolveConfig&) {
  return from_solution(greedy_ufp(instance, GreedyRanking::kByDensity),
                       instance);
}

LabSolve solve_rounding(const UfpInstance& instance,
                        const LabSolveConfig& config) {
  if (instance.num_requests() > config.rounding_max_requests) {
    return {false, 0.0, 0, false, "gated: needs the exact path LP"};
  }
  RoundingConfig rounding;
  // max_paths only: the hop cutoff would silently drop long paths without
  // flagging truncation, quietly solving a different relaxation.
  rounding.path_enum.max_paths = 800;
  try {
    const RoundingResult result =
        randomized_rounding_ufp(instance, config.rounding_seed, rounding);
    return from_solution(result.solution, instance);
  } catch (const std::exception&) {
    return {false, 0.0, 0, false, "gated: path enumeration truncated"};
  }
}

LabSolve solve_exact(const UfpInstance& instance,
                     const LabSolveConfig& config) {
  if (instance.num_requests() > config.exact_max_requests) {
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
    const UfpExactResult result = solve_ufp_exact(instance, options);
    LabSolve out = from_solution(result.solution, instance);
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

}  // namespace tufp::lab
