#include "tufp/sim/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "tufp/sim/world_gen.hpp"
#include "tufp/workload/io.hpp"

namespace tufp::sim {
namespace {

TEST(SimOracles, FullCatalogueCleanOnHealthyWorlds) {
  const OracleOptions options;
  for (WorldFamily family :
       {WorldFamily::kGrid, WorldFamily::kStaircase, WorldFamily::kRing}) {
    for (std::uint64_t seed : {11ULL, 23ULL}) {
      const SimWorld world = generate_world({family, seed});
      const std::vector<Violation> violations =
          run_oracle_suite(world, options);
      for (const Violation& v : violations) {
        ADD_FAILURE() << family_name(family) << " seed " << seed << ": "
                      << v.oracle << ": " << v.detail;
      }
    }
  }
}

TEST(SimOracles, CatalogueNamesAreUniqueAndSelectable) {
  const auto catalogue = oracle_catalogue();
  ASSERT_GE(catalogue.size(), 10u);
  for (const OracleEntry& entry : catalogue) {
    for (const OracleEntry& other : catalogue) {
      if (&entry != &other) EXPECT_STRNE(entry.name, other.name);
    }
    // Every oracle runs standalone through the subset path.
    const SimWorld world = generate_world({WorldFamily::kGrid, 5});
    const std::vector<std::string> only{entry.name};
    EXPECT_TRUE(run_oracle_suite(world, OracleOptions{}, only).empty())
        << entry.name;
  }
}

TEST(SimOracles, UnknownOracleNameThrows) {
  const SimWorld world = generate_world({WorldFamily::kGrid, 5});
  const std::vector<std::string> only{"not-an-oracle"};
  EXPECT_THROW(run_oracle_suite(world, OracleOptions{}, only),
               std::invalid_argument);
}

// First grid world whose auction actually admits somebody (a world can
// sample the faithful stop threshold and clear nothing; faults on winners
// need winners).
SimWorld world_with_winners() {
  for (std::uint64_t seed = 1;; ++seed) {
    SimWorld world = generate_world({WorldFamily::kGrid, seed});
    const SimPricing pricing =
        sim_price(world.instance, world.solver, OracleOptions{});
    if (pricing.allocation.num_selected() > 0) return world;
  }
}

TEST(SimOracles, OverchargeFaultBreaksIndividualRationality) {
  const SimWorld world = world_with_winners();
  OracleOptions options;
  options.fault = FaultInjection::kOverchargeWinners;
  const std::vector<std::string> only{"payments-ir"};
  const std::vector<Violation> violations =
      run_oracle_suite(world, options, only);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().oracle, "payments-ir");
  EXPECT_NE(violations.front().detail.find("above its bid"),
            std::string::npos);
}

TEST(SimOracles, ChargeLosersFaultBreaksLoserPaysZero) {
  // A saturating world guarantees losers exist for the fault to hit.
  OracleOptions options;
  options.fault = FaultInjection::kChargeLosers;
  const std::vector<std::string> only{"payments-ir"};
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
    const SimWorld world = generate_world({WorldFamily::kSingleSink, seed});
    caught = !run_oracle_suite(world, options, only).empty();
  }
  EXPECT_TRUE(caught);
}

TEST(SimOracles, SimPriceFaultSemantics) {
  const SimWorld world = world_with_winners();
  OracleOptions clean;
  const SimPricing honest = sim_price(world.instance, world.solver, clean);
  OracleOptions broken;
  broken.fault = FaultInjection::kOverchargeWinners;
  const SimPricing faulty = sim_price(world.instance, world.solver, broken);

  ASSERT_GT(honest.allocation.num_selected(), 0);
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double bid = world.instance.request(r).value;
    // The fault touches payments only, never the allocation.
    EXPECT_EQ(honest.allocation.is_selected(r),
              faulty.allocation.is_selected(r));
    if (honest.allocation.is_selected(r)) {
      EXPECT_LE(honest.payments[i], bid + 1e-9);
      EXPECT_GT(faulty.payments[i], bid);
    } else {
      EXPECT_EQ(honest.payments[i], 0.0);
      EXPECT_EQ(faulty.payments[i], 0.0);
    }
  }
}

TEST(SimOracles, WrappedInstanceReplaysThroughTheSuite) {
  const SimWorld world = generate_world({WorldFamily::kRandomSparse, 29});
  std::stringstream ss;
  save_ufp(world.instance, ss);
  const SimWorld replay = wrap_instance(load_ufp(ss));
  EXPECT_EQ(replay.instance.num_requests(), world.instance.num_requests());
  EXPECT_TRUE(run_oracle_suite(replay, OracleOptions{}).empty());
}

// config-diff bites: a digest that differs from its base leg in one
// payment, one residual entry or one decision record is reported
// at exactly that field, and the fields a reference leg does not define
// are never compared against it.
TEST(SimOracles, ConfigDiffNamesTheFirstDifferingField) {
  const SimWorld world = generate_world(
      {WorldFamily::kGrid, 5, DurationProfile::kExponential});
  ReplayOptions churn;
  churn.churn = true;
  churn.decisions = true;
  const RunDigest want = replay_world(world, churn);
  ASSERT_GE(want.epochs.size(), 2u);
  ASSERT_GE(want.decisions.size(), 3u);
  ASSERT_GE(want.epochs[1].residual.size(), 4u);
  EXPECT_EQ(digest_diff(want, want), "");
  ReplayOptions reference = churn;
  reference.reference = true;
  EXPECT_EQ(digest_diff(want, replay_world(world, reference)), "");

  // One field changed in a copy of the base digest; the diff must start
  // by naming it.
  const auto expect_named = [&](const auto& mutate, const std::string& field) {
    RunDigest got = want;
    mutate(got);
    const std::string diff = digest_diff(want, got);
    EXPECT_EQ(diff.compare(0, field.size(), field), 0) << diff;
    return got;
  };
  const auto winner = std::find_if(
      want.epochs.begin(), want.epochs.end(),
      [](const EpochDigest& e) { return !e.report.allocations.empty(); });
  ASSERT_NE(winner, want.epochs.end()) << "world admits nothing";
  const auto w = static_cast<std::size_t>(winner - want.epochs.begin());
  expect_named([&](RunDigest& d) {
    d.epochs[w].report.allocations[0].payment += 0.25;
  }, "epoch " + std::to_string(w) + " allocations[0].payment: ");
  expect_named([](RunDigest& d) { d.epochs[1].residual[3] += 0.5; },
               "epoch 1 residual[3]: ");
  RunDigest got = expect_named(
      [](RunDigest& d) { d.decisions[2].value = -d.decisions[2].value; },
      "decisions[2]: ");
  got.production = false;  // a reference leg defines no decision stream
  EXPECT_EQ(digest_diff(want, got), "");
}

// A one-request-per-epoch churn world over a hand-built directed graph:
// request i arrives at time i and holds its lease for durations[i].
SimWorld churn_world(Graph graph, std::vector<Request> requests,
                     std::vector<double> durations) {
  BoundedUfpConfig solver;
  solver.run_to_saturation = true;  // B = 1: the faithful loop stops at once
  const std::size_t n = requests.size();
  SimWorld world =
      wrap_instance(UfpInstance(std::move(graph), std::move(requests)),
                    solver, /*max_batch=*/1);
  for (std::size_t i = 0; i < n; ++i) {
    world.arrivals[i] = static_cast<double>(i);
  }
  world.durations = std::move(durations);
  world.duration_profile = DurationProfile::kExponential;
  return world;
}

std::vector<Violation> config_diff(const SimWorld& world) {
  const std::vector<std::string> only{"config-diff"};
  return run_oracle_suite(world, OracleOptions{}, only);
}

// Epoch 0 leases the bottleneck edge, epoch 1 admits nothing, epoch 2
// reclaims the lease and readmits over that edge. With no admission
// between the two epoch opens, only the reclaim's stamp tells the
// residual graph that its blocked mask went stale; config-diff must
// catch a reclaim that returns capacity without stamping its edges.
TEST(SimOracles, ConfigDiffCatchesAnUnstampedReclaim) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);  // e0: one unit, blocked while leased
  g.finalize();
  const SimWorld world = churn_world(
      std::move(g), {{0, 1, 1.0, 1.0}, {0, 1, 1.0, 1.0}, {0, 1, 1.0, 1.0}},
      {1.5, 10.0, 10.0});
  ReplayOptions churn;
  churn.churn = true;
  const RunDigest digest = replay_world(world, churn);
  ASSERT_EQ(digest.epochs.size(), 3u);
  EXPECT_EQ(digest.epochs[0].report.admitted, 1);
  EXPECT_EQ(digest.epochs[1].report.admitted, 0);
  EXPECT_EQ(digest.epochs[2].report.expired_leases, 1);
  EXPECT_EQ(digest.epochs[2].report.admitted, 1);
  for (const Violation& v : config_diff(world)) ADD_FAILURE() << v.detail;
}

// Source 0 reaches vertex 3 over A = e0 e1 (length 0.729 under the
// epoch-start duals y = 1/c) or B = e2 e3 e4 (0.75). Epoch 0 leases e0
// (blocking A); epoch 1's search toward vertex 5 stores a warm tree that
// routes 3 over B; epoch 2 reclaims e0 and asks for 3. The stored route
// is no longer shortest, so config-diff must catch a reclaim
// revalidation that keeps the tree.
TEST(SimOracles, ConfigDiffCatchesAWarmTreeAReclaimMadeStale) {
  Graph g = Graph::directed(6);
  g.add_edge(0, 1, 1.5);   // e0: A's bottleneck, blocked while leased
  g.add_edge(1, 3, 16.0);  // e1
  g.add_edge(0, 2, 4.0);   // e2
  g.add_edge(2, 4, 4.0);   // e3
  g.add_edge(4, 3, 4.0);   // e4
  g.add_edge(0, 5, 1.0);   // e5: far enough that its search settles 3
  g.finalize();
  const SimWorld world = churn_world(
      std::move(g), {{0, 1, 1.0, 1.0}, {0, 5, 1.0, 1.0}, {0, 3, 1.0, 1.0}},
      {1.5, 10.0, 10.0});
  ReplayOptions churn;
  churn.churn = true;
  churn.decisions = true;
  const RunDigest digest = replay_world(world, churn);
  ASSERT_EQ(digest.epochs.size(), 3u);
  EXPECT_EQ(digest.epochs[2].report.expired_leases, 1);
  const auto readmit = std::find_if(
      digest.decisions.begin(), digest.decisions.end(),
      [](const obs::DecisionRecord& r) {
        return r.sequence == 2 && r.outcome == obs::DecisionOutcome::kAdmitted;
      });
  ASSERT_NE(readmit, digest.decisions.end());
  EXPECT_EQ(readmit->path, (std::vector<std::int64_t>{0, 1}));
  EXPECT_GT(digest.trees_dropped_on_reclaim, 0);
  for (const Violation& v : config_diff(world)) ADD_FAILURE() << v.detail;
}

TEST(SimOracles, FaultNamesRoundTrip) {
  for (FaultInjection f :
       {FaultInjection::kNone, FaultInjection::kOverchargeWinners,
        FaultInjection::kChargeLosers}) {
    EXPECT_EQ(fault_from_name(fault_name(f)), f);
  }
  EXPECT_THROW(fault_from_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace tufp::sim
