// The approximation-ratio lab (DESIGN.md §9): solver registry, beta
// rescaling, the paper's headline curve (quality improves with the
// capacity-to-demand ratio), certification soundness and thread-count
// determinism of the parallel sweep.
#include "tufp/lab/sweep.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "tufp/lab/solvers.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/math.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

using lab::LabSolveConfig;
using lab::SweepCell;
using lab::SweepConfig;
using lab::SweepResult;
using lab::SweepSummaryRow;

SweepConfig acceptance_config() {
  SweepConfig config;
  config.seed = 1;
  config.families = {sim::WorldFamily::kStaircase, sim::WorldFamily::kGrid};
  config.solvers = {"bounded", "exact"};
  config.betas = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  config.worlds_per_family = 4;
  return config;
}

TEST(LabSolvers, CatalogueIsCompleteAndResolvable) {
  const auto catalogue = lab::solver_catalogue();
  ASSERT_EQ(catalogue.size(), 6u);
  for (const lab::LabSolverEntry& entry : catalogue) {
    EXPECT_EQ(lab::find_solver(entry.name), &entry);
  }
  EXPECT_EQ(lab::find_solver("no-such-solver"), nullptr);
}

TEST(LabSolvers, ExactGatesItselfOnLargeInstances) {
  const sim::SimWorld world =
      sim::generate_world({sim::WorldFamily::kGrid, 9});
  LabSolveConfig config;
  config.exact_max_requests = 1;
  const lab::LabSolve solve =
      lab::find_solver("exact")->fn(world.instance.normalized(), config);
  EXPECT_FALSE(solve.ran);
  EXPECT_FALSE(solve.note.empty());
}

TEST(LabSweep, RejectsUnknownSolverAndOutOfDomainBeta) {
  SweepConfig config = acceptance_config();
  config.solvers = {"bounded", "nonsense"};
  EXPECT_THROW(lab::run_beta_sweep(config), std::invalid_argument);
  config = acceptance_config();
  config.betas = {0.5};
  EXPECT_THROW(lab::run_beta_sweep(config), std::invalid_argument);
}

TEST(LabSweep, RescalingHitsTheRequestedBetaExactly) {
  const sim::SimWorld world =
      sim::generate_world({sim::WorldFamily::kRing, 17});
  const UfpInstance normalized = world.instance.normalized();
  for (double beta : {1.0, 4.0, 32.0}) {
    const UfpInstance scaled =
        normalized.with_capacity_scale(beta / normalized.bound_B());
    EXPECT_NEAR(scaled.bound_B() / scaled.max_demand(), beta, 1e-9 * beta);
  }
}

// The PR's acceptance pin: every reported value sits below its certified
// upper bound, every measured ratio below its certified ratio, and the
// bounded solver's mean certified ratio never worsens by more than the
// noise tolerance as beta grows on the staircase and grid families.
TEST(LabSweep, CertifiedRatiosSoundAndNonWorseningInBeta) {
  const SweepResult result = lab::run_beta_sweep(acceptance_config());

  int certified_cells = 0;
  int measured_cells = 0;
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.in_regime,
              cell.beta >= regime_capacity(cell.edges,
                                           acceptance_config().solve.epsilon));
    if (!cell.ran) continue;
    EXPECT_TRUE(approx_le(cell.value, cell.upper_bound, 1e-9, 1e-9))
        << cell.solver << " value " << cell.value << " above bound "
        << cell.upper_bound << " (" << sim::family_name(cell.family)
        << ", beta " << cell.beta << ", world " << cell.world_index << ")";
    if (cell.certified_ratio >= 0.0) ++certified_cells;
    if (cell.exact_opt >= 0.0) {
      // OPT itself obeys the certificate, so the measured ratio OPT/value
      // can never exceed the certified ratio UB/value.
      EXPECT_TRUE(approx_le(cell.exact_opt, cell.upper_bound, 1e-9, 1e-9));
      if (cell.measured_ratio >= 0.0) {
        ++measured_cells;
        EXPECT_TRUE(approx_le(cell.measured_ratio, cell.certified_ratio,
                              1e-9, 1e-9));
      }
    }
  }
  EXPECT_GT(certified_cells, 0);
  EXPECT_GT(measured_cells, 0) << "exact never proved OPT on any cell";

  // Mean certified ratio of `bounded` per (family, beta), in beta order.
  std::map<std::pair<int, double>, double> curve;
  for (const SweepSummaryRow& row : result.summary) {
    if (row.solver != "bounded" || row.cells == 0) continue;
    curve[{static_cast<int>(row.family), row.beta}] = row.mean_ratio;
  }
  for (const sim::WorldFamily family : acceptance_config().families) {
    double previous = -1.0;
    for (const double beta : acceptance_config().betas) {
      const auto it = curve.find({static_cast<int>(family), beta});
      ASSERT_NE(it, curve.end())
          << sim::family_name(family) << " beta " << beta;
      const double ratio = it->second;
      EXPECT_GE(ratio, 1.0 - 1e-9);
      if (previous >= 0.0) {
        // 10% noise tolerance on the 4-world mean; the trend across the
        // grid must match the paper's large-capacity story.
        EXPECT_LE(ratio, previous * 1.10 + 1e-9)
            << sim::family_name(family) << ": ratio worsened from "
            << previous << " to " << ratio << " at beta " << beta;
      }
      previous = ratio;
    }
    // Endpoint check: by beta = 32 the regime is wide enough that the
    // certified ratio collapses to ~1.
    EXPECT_LE(previous, 1.05) << sim::family_name(family);
  }
}

TEST(LabSweep, JsonByteIdenticalAcrossThreadCounts) {
  SweepConfig config = acceptance_config();
  config.solvers = {"bounded", "greedy-density"};
  config.worlds_per_family = 2;
  config.betas = {2.0, 8.0};
  config.num_threads = 1;
  const std::string one = lab::sweep_to_json(lab::run_beta_sweep(config));
  config.num_threads = 4;
  const std::string four = lab::sweep_to_json(lab::run_beta_sweep(config));
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"sweep\": \"beta\""), std::string::npos);
}

TEST(LabSweep, WorldSeedsAddressableAcrossConfigSubsets) {
  // Shrinking the family set or the beta grid must not renumber the
  // surviving cells' worlds (the fuzz-style addressability contract).
  SweepConfig wide = acceptance_config();
  wide.solvers = {"greedy-value"};
  wide.worlds_per_family = 2;
  SweepConfig narrow = wide;
  narrow.families = {sim::WorldFamily::kGrid};
  narrow.betas = {4.0};
  const SweepResult a = lab::run_beta_sweep(wide);
  const SweepResult b = lab::run_beta_sweep(narrow);
  for (const SweepCell& cell : b.cells) {
    bool found = false;
    for (const SweepCell& ref : a.cells) {
      if (ref.family == cell.family && ref.world_index == cell.world_index &&
          ref.beta == cell.beta) {
        EXPECT_EQ(ref.world_seed, cell.world_seed);
        EXPECT_EQ(ref.value, cell.value);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace tufp
