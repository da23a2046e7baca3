// The approximation-ratio lab: large-capacity regime sweeps with
// certified upper bounds (DESIGN.md §9).
//
// The paper's headline claim is that Bounded-UFP's quality improves as
// the capacity-to-demand ratio beta = c_min/d_max grows. This driver
// measures that curve empirically: for every configured sim world family
// it regenerates deterministic worlds (sim/world_gen), normalizes them so
// d_max = 1, rescales edge capacities to hit each beta on the sweep grid,
// runs every configured solver, and certifies the outcome against the
// tightest available upper bound from lab/upper_bound.hpp. A cell's
//
//   certified_ratio = upper_bound / value  (>= 1, lower is better)
//
// dominates the true ratio OPT/value, so the reported curve is a sound
// *pessimistic* estimate of solver quality; where the exact solver proves
// OPT the measured ratio OPT/value is reported alongside and is always
// <= the certified one.
//
// Determinism: each cell is a pure function of (run seed, family, world
// index, beta, solver); cells fan out over parallel_for into
// preallocated slots and are emitted in fixed task order, so JSON/CSV
// artifacts are byte-identical for any --threads value.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tufp/lab/solvers.hpp"
#include "tufp/sim/world.hpp"
#include "tufp/util/table.hpp"

namespace tufp::lab {

struct SweepConfig {
  std::uint64_t seed = 1;
  std::vector<sim::WorldFamily> families;  // empty = full matrix
  std::vector<std::string> solvers;        // empty = whole catalogue
  std::vector<double> betas = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  int worlds_per_family = 3;
  int num_threads = 0;  // across cells; 0 = hardware_concurrency()
  // solve.epsilon doubles as the certifying epsilon: bounds are computed
  // under exactly the config the bounded/bkv solvers run, so one
  // Bounded-UFP run per cell both certifies and answers `bounded`.
  LabSolveConfig solve;
};

struct SweepCell {
  sim::WorldFamily family{};
  int world_index = 0;          // 0..worlds_per_family-1
  std::uint64_t world_seed = 0; // sim::WorldSpec seed (regenerates exactly)
  double beta = 0.0;
  int requests = 0;
  int edges = 0;
  std::string solver;
  // True when beta clears ln(m)/eps^2 — the Omega(ln m) regime where
  // Theorem 3.1's guarantee formally applies (workload/scenarios.hpp's
  // regime_capacity); empirical ratios typically collapse to ~1 well
  // before this threshold.
  bool in_regime = false;
  bool ran = false;
  double value = 0.0;
  int selected = 0;
  double upper_bound = 0.0;     // certified; always available (claim36)
  std::string bound_method;
  double certified_ratio = -1.0;  // upper_bound/value; -1 when value == 0
  double exact_opt = -1.0;        // proven OPT of the cell's instance, else -1
  double measured_ratio = -1.0;   // exact_opt/value when both available
};

// Aggregate over the worlds of one (family, solver, beta) point.
struct SweepSummaryRow {
  sim::WorldFamily family{};
  std::string solver;
  double beta = 0.0;
  int cells = 0;          // cells where the solver ran with value > 0
  double mean_ratio = -1.0;   // mean certified ratio; -1 when cells == 0
  double worst_ratio = -1.0;  // max certified ratio
};

struct SweepResult {
  std::uint64_t seed = 0;
  std::vector<double> betas;
  std::vector<SweepCell> cells;          // fixed deterministic order
  std::vector<SweepSummaryRow> summary;  // family x solver x beta order
};

// Throws std::invalid_argument on an unknown solver name, empty beta grid
// or beta < 1 (the rescaled instance must keep B >= d_max for Bounded-UFP).
SweepResult run_beta_sweep(const SweepConfig& config);

// Deterministic serializations (fixed field order, 17 significant digits),
// byte-identical across thread counts for identical configs.
std::string sweep_to_json(const SweepResult& result);
void sweep_to_csv(const SweepResult& result, std::ostream& os);

// The human-facing summary (family / solver / beta / worlds / mean and
// worst certified ratio), one renderer for the CLI and the E13 bench.
Table summary_table(const SweepResult& result);

}  // namespace tufp::lab
