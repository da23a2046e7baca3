// Direct tests of the lazy shortest-path cache behind Bounded-UFP and
// Bounded-UFP-Repeat (detail/sp_cache.hpp): stale detection, permanent
// unreachability caching, and deterministic parallel refresh.
#include "tufp/ufp/detail/sp_cache.hpp"

#include <gtest/gtest.h>

#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/graph/generators.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

UfpInstance diamond_instance() {
  // Two 0->3 routes (edges {0,1} and {2,3}).
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);  // e0
  g.add_edge(1, 3, 5.0);  // e1
  g.add_edge(0, 2, 5.0);  // e2
  g.add_edge(2, 3, 5.0);  // e3
  g.finalize();
  return UfpInstance(std::move(g),
                     {{0, 3, 1.0, 1.0}, {0, 3, 1.0, 2.0}, {1, 0, 1.0, 1.0}});
}

TEST(SpCache, ComputesShortestPathsOnFirstRefresh) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, /*num_threads=*/1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1, 2};
  cache.refresh(y, stamps, 1, active, /*lazy=*/true);
  EXPECT_DOUBLE_EQ(cache.entry(0).length, 2.0);
  EXPECT_EQ(cache.entry(0).path, (Path{0, 1}));
  EXPECT_FALSE(cache.entry(2).reachable);  // 1 -> 0 has no arc
  EXPECT_EQ(cache.recomputed_last_refresh(), 3u);
}

TEST(SpCache, UntouchedPathsAreNotRecomputed) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true);
  ASSERT_EQ(cache.recomputed_last_refresh(), 2u);

  // Update an edge OFF the cached paths: nothing becomes stale.
  y[2] = 3.0;
  stamps[2] = 2;
  cache.refresh(y, stamps, 2, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);

  // Update an edge ON the cached path: both requests go stale and the
  // recomputed paths switch to the alternative route (y = 3.0 + 2.0).
  y[0] = 10.0;
  stamps[0] = 3;
  cache.refresh(y, stamps, 3, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
  EXPECT_EQ(cache.entry(0).path, (Path{2, 3}));
  EXPECT_DOUBLE_EQ(cache.entry(0).length, 5.0);
}

TEST(SpCache, UnreachableIsCachedForever) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 1.0, 1.0};
  std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{2};
  cache.refresh(y, stamps, 1, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 1u);
  // Even with every edge stamped dirty, the unreachable entry stays put.
  for (auto& s : stamps) s = 2;
  cache.refresh(y, stamps, 2, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(2).reachable);
}

TEST(SpCache, EagerModeAlwaysRecomputes) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, /*lazy=*/false);
  cache.refresh(y, stamps, 2, active, /*lazy=*/false);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
}

TEST(SpCache, ParallelAndSerialProduceIdenticalEntries) {
  Rng rng(321);
  Graph g = grid_graph(4, 4, 3.0, false);
  RequestGenConfig cfg;
  cfg.num_requests = 40;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  const UfpInstance inst(std::move(g), std::move(reqs));

  std::vector<double> y(static_cast<std::size_t>(inst.graph().num_edges()));
  for (auto& w : y) w = rng.next_double(0.1, 2.0);
  const std::vector<std::int64_t> stamps(y.size(), 0);
  std::vector<int> active(static_cast<std::size_t>(inst.num_requests()));
  for (int r = 0; r < inst.num_requests(); ++r) active[static_cast<std::size_t>(r)] = r;

  detail::SpCache serial(inst, /*num_threads=*/1);
  detail::SpCache parallel(inst, /*num_threads=*/4);
  serial.refresh(y, stamps, 1, active, true);
  parallel.refresh(y, stamps, 1, active, true);
  for (int r = 0; r < inst.num_requests(); ++r) {
    EXPECT_DOUBLE_EQ(serial.entry(r).length, parallel.entry(r).length);
    EXPECT_EQ(serial.entry(r).path, parallel.entry(r).path);
  }
}

TEST(SpCache, FitStatusTracksCapacityGuardCrossings) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  std::vector<double> residual{5.0, 5.0, 5.0, 5.0};
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true, residual);
  EXPECT_TRUE(cache.entry(0).fits);
  EXPECT_TRUE(cache.entry(1).fits);

  // An admission drives edge 0 below the demand (1.0) and stamps it —
  // the invariant the solvers uphold: residual changes only on stamped
  // edges. Both cached paths cross edge 0, so both entries go stale and
  // their guard status flips on the recomputation.
  residual[0] = 0.5;
  stamps[0] = 1;
  cache.refresh(y, stamps, 2, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
  EXPECT_EQ(cache.entry(0).path, (Path{0, 1}));  // still shortest under y
  EXPECT_FALSE(cache.entry(0).fits);
  EXPECT_FALSE(cache.entry(1).fits);

  // No further stamps: the guard verdict stays cached, nothing recomputes.
  cache.refresh(y, stamps, 3, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(0).fits);
}

TEST(SpCache, FitStatusIsPerRequestDemand) {
  // Same path, different demands: the crossing threshold is the demand.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 5.0);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 1, 1.0, 1.0}, {0, 1, 0.25, 1.0}});
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0};
  std::vector<std::int64_t> stamps{0};
  std::vector<double> residual{0.5};
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true, residual);
  EXPECT_FALSE(cache.entry(0).fits);  // demand 1.0 > residual 0.5
  EXPECT_TRUE(cache.entry(1).fits);   // demand 0.25 fits
}

TEST(SpCache, ReclaimedCapacityNeedsAStampToUnstickNegativeFits) {
  // The admit → expire → re-admit bug class (DESIGN.md §10): a cached
  // "does not fit" verdict is valid until the entry goes stale, and the
  // entry only goes stale through edge stamps. Returning capacity to an
  // edge WITHOUT stamping it therefore leaves the negative verdict in
  // place — the request is starved although its path now fits. The
  // reclaim path must stamp every edge whose residual it increases, which
  // is exactly what flips the verdict back.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  std::vector<double> residual{5.0, 5.0, 5.0, 5.0};
  const std::vector<int> active{0};

  // Admission saturates edge 0 (stamped, per the solver invariant).
  residual[0] = 0.0;
  stamps[0] = 1;
  cache.refresh(y, stamps, 2, active, true, residual);
  ASSERT_FALSE(cache.entry(0).fits);

  // A lease expiry restores the capacity. Without a stamp the cache has
  // no way to know: the stale negative verdict persists — this assertion
  // documents the hazard the invariant exists to prevent.
  residual[0] = 5.0;
  cache.refresh(y, stamps, 3, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(0).fits);  // stale: the path actually fits now

  // The reclaim bumps the invalidation stamp of the touched edge; the
  // entry recomputes and the request is admittable again.
  stamps[0] = 3;
  cache.refresh(y, stamps, 4, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 1u);
  EXPECT_TRUE(cache.entry(0).fits);
}

TEST(SpCache, WithoutResidualEveryEntryFits) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  EXPECT_TRUE(cache.entry(0).fits);
  EXPECT_TRUE(cache.entry(1).fits);
}

TEST(SpCache, SharedSourcesRefreshFromOneTree) {
  // Requests 0 and 1 share source 0: one Dijkstra tree serves both, so
  // two recomputed entries cost one tree run.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1, 2}, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 3u);
  EXPECT_EQ(cache.tree_runs_last_refresh(), 2);  // sources {0, 1}
}

TEST(SpCache, RebindReusesSourcePlanAcrossEpochs) {
  // The cross-epoch regression this PR fixes: rebind() used to re-shard
  // the batch by source on every call, paying O(batch) plan construction
  // per epoch even when a resident driver replays the same source
  // sequence. The plan must be reused whenever the new batch's sources
  // match the previous batch position-for-position, and rebuilt whenever
  // they do not.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst.graph(), inst.requests(), /*num_threads=*/1);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 0);

  // Same source sequence in a different span: plan reused, no rebuild.
  const std::vector<Request> same_sources{
      {0, 3, 0.5, 9.0}, {0, 3, 0.5, 9.0}, {1, 0, 0.5, 9.0}};
  cache.rebind(same_sources);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 1);
  cache.rebind(same_sources);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 2);

  // A different source sequence (same length) must rebuild.
  const std::vector<Request> new_sources{
      {2, 3, 0.5, 9.0}, {0, 3, 0.5, 9.0}, {1, 0, 0.5, 9.0}};
  cache.rebind(new_sources);
  EXPECT_EQ(cache.plan_builds(), 2);
  EXPECT_EQ(cache.plan_reuses(), 2);

  // So must a different batch size.
  const std::vector<Request> shorter{{2, 3, 0.5, 9.0}};
  cache.rebind(shorter);
  EXPECT_EQ(cache.plan_builds(), 3);
}

TEST(SpCache, RebindResetsEntriesEvenWhenThePlanIsReused) {
  // Computation stamps and fit verdicts are epoch-local (the blocked
  // mask they were judged under changes between epochs); a reused plan
  // must never carry a reused entry with it.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst.graph(), inst.requests(), 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  ASSERT_GE(cache.entry(0).computed_at, 0);

  cache.rebind(inst.requests());
  EXPECT_EQ(cache.plan_reuses(), 1);
  EXPECT_EQ(cache.entry(0).computed_at, -1);  // stale by construction
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
}

TEST(SpCache, WarmTreesServeEpochStartRefreshesBitwiseIdentically) {
  // Cross-epoch warm start (DESIGN.md §12): the first refresh of epoch
  // k+1 may serve a shard from a tree stored at epoch k when no path
  // edge was stamped since — and the served entries must be bitwise
  // identical to a fresh search (checked here against a cold cache).
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 3, 5.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));
  const std::vector<Request> reqs{{0, 3, 1.0, 1.0}, {0, 1, 1.0, 1.0}};

  ResidualGraph rgraph(base, 1.0);
  SourceTreeCache trees;
  detail::SpCache warm_cache(*base, reqs, 1);
  warm_cache.set_warm_context(&rgraph, &trees);

  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const WeightProfile profile = WeightProfile::scan(y);
  ASSERT_TRUE(profile.all_positive);

  // Epoch 0's first refresh: a miss, computed fresh and stored.
  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(),
                     /*epoch_start=*/true);
  EXPECT_EQ(warm_cache.warm_trees_last_refresh(), 0);
  ASSERT_EQ(trees.num_trees(), 1u);

  // Epoch 1: no edge touched, same sources. The whole shard is served
  // from the stored tree without a search.
  rgraph.open_epoch();
  warm_cache.rebind(reqs);
  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(),
                     /*epoch_start=*/true);
  EXPECT_EQ(warm_cache.warm_trees_last_refresh(), 1);
  EXPECT_EQ(warm_cache.warm_entries_served(), 2);
  // Counter parity: the warm-served shard still accounts as a tree run.
  EXPECT_EQ(warm_cache.tree_runs_last_refresh(), 1);

  detail::SpCache cold_cache(*base, reqs, 1);
  cold_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(warm_cache.entry(r).path, cold_cache.entry(r).path);
    EXPECT_EQ(warm_cache.entry(r).length, cold_cache.entry(r).length);  // ==
    EXPECT_EQ(warm_cache.entry(r).fits, cold_cache.entry(r).fits);
  }

  // An admission stamps edge 0; the stored tree fails validation at the
  // next epoch start and the shard recomputes fresh.
  const std::vector<EdgeId> path{0};
  rgraph.commit_admission(path, 1.0);
  rgraph.open_epoch();
  warm_cache.rebind(reqs);
  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  EXPECT_EQ(warm_cache.warm_trees_last_refresh(), 0);
}

TEST(SpCache, WarmTreesSurviveReclaimsThatMissTheirSettledSet) {
  // The cache-cooperative reclaim path: a reclaim whose edges cannot
  // touch a stored tree's settled set keeps that tree warm
  // (revalidate_after_reclaim bumps validated_clock past the reclaim's
  // last_decrease tick) while the touched tree drops and recomputes
  // fresh. Served entries must stay bitwise identical to a cold search.
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);  // e0 — source 0's island
  g.add_edge(2, 3, 5.0);  // e1 — source 2's island
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));
  const std::vector<Request> reqs{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};

  ResidualGraph rgraph(base, 1.0);
  SourceTreeCache trees;
  detail::SpCache warm_cache(*base, reqs, 1);
  warm_cache.set_warm_context(&rgraph, &trees);

  const std::vector<double> y{1.0, 1.0};
  const WeightProfile profile = WeightProfile::scan(y);
  ASSERT_TRUE(profile.all_positive);

  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(),
                     /*epoch_start=*/true);
  ASSERT_EQ(trees.num_trees(), 2u);

  // An admission on e1 followed by a lease reclaim restoring it — the
  // engine's reclaim protocol (write-back + note_reclaimed + per-tree
  // revalidation). Source 0's island never sees edge 1.
  rgraph.commit_admission(std::vector<EdgeId>{1}, 1.0);
  rgraph.mutable_residual()[1] = 5.0;
  const std::vector<EdgeId> reclaimed{1};
  rgraph.note_reclaimed(reclaimed);
  const SourceTreeCache::ReclaimRevalidation r =
      trees.revalidate_after_reclaim(*base, reclaimed, rgraph.clock());
  EXPECT_EQ(r.kept, 1);
  EXPECT_EQ(r.dropped, 1);
  ASSERT_NE(trees.lookup(0), nullptr);
  EXPECT_EQ(trees.lookup(2), nullptr);

  rgraph.open_epoch();
  warm_cache.rebind(reqs);
  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  // The surviving tree serves its shard warm across the reclaim; the
  // dropped one recomputes (and is re-stored for the next epoch).
  EXPECT_EQ(warm_cache.warm_trees_last_refresh(), 1);
  EXPECT_EQ(warm_cache.warm_entries_served(), 1);
  EXPECT_EQ(trees.num_trees(), 2u);

  detail::SpCache cold_cache(*base, reqs, 1);
  cold_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  for (int req = 0; req < 2; ++req) {
    EXPECT_EQ(warm_cache.entry(req).path, cold_cache.entry(req).path);
    EXPECT_EQ(warm_cache.entry(req).length, cold_cache.entry(req).length);
    EXPECT_EQ(warm_cache.entry(req).fits, cold_cache.entry(req).fits);
  }
}

TEST(SpCache, FirstGroupMissKeepsCounterParityWithAlwaysFresh) {
  // Satellite audit: a warm epoch whose FIRST shard misses (its tree was
  // dropped by a reclaim) while a later shard serves warm must report
  // tree runs and recompute counts byte-identical to an always-fresh
  // cache — the counters feed sp_computations/sp_tree_runs in goldens.
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);  // e0 — first group's island
  g.add_edge(2, 3, 5.0);  // e1 — second group's island
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));
  const std::vector<Request> reqs{{0, 1, 1.0, 1.0}, {2, 3, 1.0, 1.0}};

  ResidualGraph rgraph(base, 1.0);
  SourceTreeCache trees;
  detail::SpCache warm_cache(*base, reqs, 1);
  warm_cache.set_warm_context(&rgraph, &trees);

  const std::vector<double> y{1.0, 1.0};
  const WeightProfile profile = WeightProfile::scan(y);

  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(),
                     /*epoch_start=*/true);
  ASSERT_EQ(trees.num_trees(), 2u);

  // Reclaim e0: the first group's tree dies, the second survives.
  rgraph.commit_admission(std::vector<EdgeId>{0}, 1.0);
  rgraph.mutable_residual()[0] = 5.0;
  const std::vector<EdgeId> reclaimed{0};
  rgraph.note_reclaimed(reclaimed);
  trees.revalidate_after_reclaim(*base, reclaimed, rgraph.clock());
  EXPECT_EQ(trees.lookup(0), nullptr);
  ASSERT_NE(trees.lookup(2), nullptr);

  rgraph.open_epoch();
  warm_cache.rebind(reqs);
  warm_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  EXPECT_EQ(warm_cache.warm_trees_last_refresh(), 1);

  detail::SpCache cold_cache(*base, reqs, 1);
  cold_cache.refresh(y, rgraph.stamps(), 1, std::vector<int>{0, 1}, true,
                     rgraph.residual(), &profile, rgraph.blocked(), true);
  // Counter parity despite the mixed warm/fresh epoch.
  EXPECT_EQ(warm_cache.tree_runs_last_refresh(),
            cold_cache.tree_runs_last_refresh());
  EXPECT_EQ(warm_cache.recomputed_last_refresh(),
            cold_cache.recomputed_last_refresh());
  EXPECT_EQ(warm_cache.tree_runs_last_refresh(), 2);
  EXPECT_EQ(warm_cache.recomputed_last_refresh(), 2u);
  for (int req = 0; req < 2; ++req) {
    EXPECT_EQ(warm_cache.entry(req).path, cold_cache.entry(req).path);
    EXPECT_EQ(warm_cache.entry(req).length, cold_cache.entry(req).length);
  }
}

TEST(SpCache, SolverCountersShowLazySavings) {
  // Jittered capacities keep shortest paths unique (lazy and eager runs
  // are provably identical only up to shortest-path ties).
  Rng rng(654);
  Graph g = random_graph(12, 30, 5.0, 8.0, /*directed=*/true, rng);
  RequestGenConfig cfg;
  cfg.num_requests = 60;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  const UfpInstance inst(std::move(g), std::move(reqs));

  BoundedUfpConfig lazy;
  lazy.epsilon = 0.6;
  lazy.run_to_saturation = true;
  BoundedUfpConfig eager = lazy;
  eager.lazy_shortest_paths = false;
  const auto a = bounded_ufp(inst, lazy);
  const auto b = bounded_ufp(inst, eager);
  ASSERT_GT(a.iterations, 0);
  // Identical outcomes, strictly fewer Dijkstra runs.
  EXPECT_EQ(a.solution.selected_requests(), b.solution.selected_requests());
  EXPECT_GT(b.sp_computations, a.sp_computations);
  // Eager does |remaining| recomputes per iteration.
  EXPECT_GE(b.sp_computations, static_cast<std::int64_t>(b.iterations));
}

}  // namespace
}  // namespace tufp
