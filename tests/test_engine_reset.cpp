// EpochEngine::reset() vs warm state (DESIGN.md §12): after a full
// churn replay — reclaims fired, warm trees stored and revalidated,
// ledger clocks advanced — and one more epoch that leaves leases live
// and the residual depleted, reset() must return the engine to a state
// byte-indistinguishable from freshly constructed. Pinned by replaying
// the same churn world twice through one engine (reset between) and
// diffing both canonical run digests (sim/oracles.hpp) against a fresh
// engine's with exact ==.
#include <gtest/gtest.h>

#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/sim/oracles.hpp"
#include "tufp/sim/world_gen.hpp"

namespace tufp {
namespace {

TEST(EngineReset, ResetThenReplayIsByteIdenticalToAFreshEngine) {
  // A churn world: finite leases expire mid-replay, so the warm state a
  // stale reset would leak — tree-cache clocks, residual stamps,
  // last_decrease, ledger wheel — is all genuinely exercised.
  sim::ScaleChurnSpec spec;
  spec.rows = 24;
  spec.cols = 24;
  spec.num_requests = 600;
  spec.source_pool = 10;
  spec.target_radius = 5;
  spec.seed = 29;
  const sim::SimWorld world = sim::make_scale_churn_world(spec);
  ASSERT_FALSE(world.durations.empty());

  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.solver = world.solver;
  config.solver.capacity_guard = true;

  EpochEngine warm(world.instance.shared_graph(), config);
  const sim::RunDigest first = sim::replay_world(world, /*churn=*/true, warm);
  ASSERT_FALSE(first.epochs.empty());
  EXPECT_GT(warm.metrics().counters().leases_expired, 0)
      << "world must churn or the reset audit is vacuous";

  // The replay ends with a horizon drain that empties the ledger and
  // snaps the residual back to base capacity. One more epoch far past
  // that horizon leaves finite leases live, so reset() must restore the
  // residual and clear the ledger itself, not inherit a drained state.
  std::vector<TimedRequest> late;
  for (int i = 0; i < world.max_batch; ++i) {
    const auto k = static_cast<std::size_t>(i);
    TimedRequest t;
    t.arrival_time = 1e6;
    t.sequence = i;
    t.duration = world.durations[k];
    t.request = world.instance.requests()[k];
    late.push_back(t);
  }
  warm.run_epoch(late);
  ASSERT_GT(warm.lease_ledger()->active_count(), 0);
  const auto base = world.instance.graph().capacities();
  bool depleted = false;
  for (std::size_t e = 0; e < base.size(); ++e) {
    depleted = depleted || warm.residual()[e] < base[e];
  }
  ASSERT_TRUE(depleted) << "live leases must hold residual below base";

  warm.reset();
  EXPECT_EQ(warm.epochs_run(), 0);
  EXPECT_EQ(warm.metrics().counters().requests_seen, 0);
  const sim::RunDigest after_reset = sim::replay_world(world, true, warm);

  EpochEngine fresh(world.instance.shared_graph(), config);
  const sim::RunDigest baseline = sim::replay_world(world, true, fresh);

  // Every deterministic report field, the per-epoch residual and ledger
  // views, the horizon drain and the warm-tree counters, exactly.
  EXPECT_EQ(sim::digest_diff(baseline, after_reset), "");
  EXPECT_EQ(sim::digest_diff(baseline, first), "");
}

}  // namespace
}  // namespace tufp
