// Theorem 2.3 machinery: critical-value payments computed by bisection
// over a monotone allocation rule.
#include "tufp/mechanism/critical_payment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tufp/graph/generators.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

UfpInstance competitive_instance(std::uint64_t seed, int requests = 10) {
  Rng rng(seed);
  Graph g = grid_graph(3, 3, 1.5, false);
  RequestGenConfig cfg;
  cfg.num_requests = requests;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  return UfpInstance(std::move(g), std::move(reqs));
}

// Tight fixtures sit outside the ln(m)/eps^2 regime, where the faithful
// threshold stops the loop before any selection; the saturating rule keeps
// the mechanism meaningful (it is monotone and exact all the same).
UfpRule saturating_rule() {
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  return make_bounded_ufp_rule(cfg);
}

TEST(CriticalPayment, SingleEdgeDuelHasExactThreshold) {
  // Two unit-ish demands on one capacity-1 edge: only one wins; the winner
  // pays (up to tolerance) the value at which it starts beating the rival.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  // Equal demands: priority comparison reduces to value comparison, so the
  // critical value of the winner equals the loser's value.
  UfpInstance inst(std::move(g), {{0, 1, 0.8, 7.0}, {0, 1, 0.8, 3.0}});
  const UfpRule rule = make_bounded_ufp_rule();
  const UfpMechanismResult res = run_ufp_mechanism(inst, rule);
  ASSERT_TRUE(res.allocation.is_selected(0));
  ASSERT_FALSE(res.allocation.is_selected(1));
  EXPECT_NEAR(res.payments[0], 3.0, 1e-4);
  EXPECT_DOUBLE_EQ(res.payments[1], 0.0);
  EXPECT_NEAR(res.utilities[0], 4.0, 1e-4);
}

TEST(CriticalPayment, UncontestedWinnerPaysNearZero) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 1.0, 5.0}});
  const UfpMechanismResult res =
      run_ufp_mechanism(inst, make_bounded_ufp_rule());
  ASSERT_TRUE(res.allocation.is_selected(0));
  EXPECT_LT(res.payments[0], 1e-4 * 5.0 + 1e-6);
}

class PaymentPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaymentPropertyTest, PaymentsBracketTheWinThreshold) {
  const UfpInstance inst = competitive_instance(GetParam());
  const UfpRule rule = saturating_rule();
  ASSERT_GT(rule(inst).num_selected(), 0);
  PaymentOptions options;
  options.tolerance = 1e-6;
  const UfpMechanismResult res = run_ufp_mechanism(inst, rule, options);

  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!res.allocation.is_selected(r)) {
      EXPECT_DOUBLE_EQ(res.payments[r], 0.0);
      continue;
    }
    const double theta = res.payments[r];
    const Request& req = inst.request(r);
    // Individual rationality: never above the declared value.
    EXPECT_LE(theta, req.value + 1e-9);
    EXPECT_GE(res.utilities[r], -1e-9);
    // Declaring just above theta wins; just below (when meaningful) loses.
    Request above = req;
    above.value = theta * (1.0 + 1e-3) + 1e-9;
    EXPECT_TRUE(rule(inst.with_request(r, above)).is_selected(r))
        << "request " << r;
    if (theta > 1e-3) {
      Request below = req;
      below.value = theta * (1.0 - 1e-3);
      EXPECT_FALSE(rule(inst.with_request(r, below)).is_selected(r))
          << "request " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaymentPropertyTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

TEST(CriticalPayment, ValueReportAboveThetaDoesNotChangePayment) {
  // Winner's payment is independent of its declared value while winning —
  // the hallmark of critical-value pricing.
  const UfpInstance inst = competitive_instance(210);
  const UfpRule rule = saturating_rule();
  const UfpMechanismResult res = run_ufp_mechanism(inst, rule);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!res.allocation.is_selected(r)) continue;
    Request boosted = inst.request(r);
    boosted.value *= 3.0;
    const UfpInstance alt = inst.with_request(r, boosted);
    ASSERT_TRUE(rule(alt).is_selected(r));
    const double theta_alt = ufp_critical_value(alt, rule, r);
    EXPECT_NEAR(theta_alt, res.payments[r],
                1e-4 * std::max(1.0, res.payments[r]) + 1e-5);
  }
}

TEST(CriticalPayment, MucaMechanismEndToEnd) {
  // B = 2 is far outside the ln(m)/eps^2 regime for the default epsilon, so
  // the faithful threshold would stop the auction before any selection;
  // saturation mode exercises the full mechanism pipeline instead.
  const MucaInstance inst = make_random_auction(8, 2, 12, 2, 4, 1.0, 9.0, 5);
  BoundedMucaConfig cfg;
  cfg.run_to_saturation = true;
  const MucaRule rule = make_bounded_muca_rule(cfg);
  const MucaMechanismResult res = run_muca_mechanism(inst, rule);
  EXPECT_TRUE(res.allocation.check_feasibility(inst).feasible);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (res.allocation.is_selected(r)) {
      EXPECT_LE(res.payments[r], inst.request(r).value + 1e-9);
      EXPECT_GE(res.payments[r], 0.0);
      EXPECT_NEAR(res.utilities[r], inst.request(r).value - res.payments[r],
                  1e-12);
    } else {
      EXPECT_DOUBLE_EQ(res.payments[r], 0.0);
      EXPECT_DOUBLE_EQ(res.utilities[r], 0.0);
    }
  }
  EXPECT_GT(res.rule_evaluations, 0);
}

TEST(CriticalPayment, EvaluationCountIsBounded) {
  const UfpInstance inst = competitive_instance(220, 8);
  PaymentOptions options;
  options.max_bisection_steps = 10;
  const UfpMechanismResult res =
      run_ufp_mechanism(inst, saturating_rule(), options);
  EXPECT_LE(res.rule_evaluations,
            static_cast<long>(res.allocation.num_selected()) * 10);
}

// `rule`, counting its runs in *runs.
UfpRule counting(UfpRule rule, int* runs) {
  return [rule = std::move(rule), runs](const UfpInstance& probe) {
    ++*runs;
    return rule(probe);
  };
}

TEST(CriticalDemand, EvaluationCountIncludesEveryProbe) {
  // Wins at its declared demand and at the ceiling: the early return after
  // the ceiling probe has still run the rule twice.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 0.3, 5.0}});
  int runs = 0;
  long evaluations = 0;
  EXPECT_DOUBLE_EQ(ufp_critical_demand(inst,
                                       counting(make_bounded_ufp_rule(), &runs),
                                       0, {}, &evaluations),
                   1.0);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(evaluations, runs);

  // Contested winners take the bisection path; the count still matches.
  const UfpInstance contested = competitive_instance(230);
  const UfpSolution won = saturating_rule()(contested);
  for (int r = 0; r < contested.num_requests(); ++r) {
    if (!won.is_selected(r)) continue;
    runs = 0;
    evaluations = 0;
    ufp_critical_demand(contested, counting(saturating_rule(), &runs), r, {},
                        &evaluations);
    EXPECT_EQ(evaluations, runs) << "request " << r;
  }
}

// Features of the withheld rounds the exact-equality test must reach.
struct WithheldCoverage {
  int winners = 0;
  int guard_skips = 0;   // rounds where the winner's path did not fit
  int last_left = 0;     // winners whose threshold is set by a round
                         // with no competitor left
};

// The fast overload against the generic bisection over
// make_bounded_ufp_rule(cfg), compared with EXPECT_EQ on every winner, and
// each payment inside the bracket around the exact threshold: the minimum
// over rounds of the bid at which the winner beats that round's selection.
void expect_fast_equals_generic(const UfpInstance& inst,
                                const BoundedUfpConfig& cfg,
                                WithheldCoverage* coverage) {
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const UfpSolution allocation = rule(inst);
  PaymentOptions options;
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!allocation.is_selected(r)) continue;
    ++coverage->winners;
    const double fast = ufp_critical_value(inst, cfg, r, options);
    const double generic = ufp_critical_value(inst, rule, r, options);
    EXPECT_EQ(fast, generic) << "request " << r;

    const double demand = inst.request(r).demand;
    double theta = kInf;
    bool set_by_last = false;
    for (const WithheldRound& round : bounded_ufp_withheld(inst, cfg, r)) {
      if (!round.fits) {
        ++coverage->guard_skips;
        continue;
      }
      const double at = round.winner < 0
                            ? 0.0
                            : demand * round.length / round.winner_priority;
      if (at < theta) {
        theta = at;
        set_by_last = round.winner < 0;
      }
    }
    if (set_by_last) ++coverage->last_left;
    // The solver compares a rounded product, so the exact quotient may sit
    // a few ulps off either way.
    const double ulps = 1e-12 * theta;
    EXPECT_GE(fast, theta - ulps) << "request " << r;
    EXPECT_LE(fast, theta + options.tolerance * std::max(1.0, fast) + ulps)
        << "request " << r;
  }
}

// The multi-instance cases solve serially, as the engine prices: a
// threaded probe solve would only add per-slot engines and pool hand-offs
// to thousands of tiny solves.
TEST(CriticalPaymentFast, EqualsGenericBisectionUnderSaturation) {
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  cfg.num_threads = 1;
  WithheldCoverage coverage;
  for (std::uint64_t seed = 240; seed < 248; ++seed) {
    expect_fast_equals_generic(competitive_instance(seed, 12), cfg,
                               &coverage);
  }
  EXPECT_GT(coverage.winners, 20);
  EXPECT_GT(coverage.guard_skips, 0);
  EXPECT_GT(coverage.last_left, 0);
}

TEST(CriticalPaymentFast, EqualsGenericBisectionUnderFaithfulThreshold) {
  // Capacity 6 with eps = 1 puts the threshold e^5 above the initial dual
  // sum, so the faithful loop selects and then stops on the threshold
  // with requests still fitting.
  BoundedUfpConfig cfg;
  cfg.epsilon = 1.0;
  cfg.num_threads = 1;
  WithheldCoverage coverage;
  int threshold_stops = 0;
  for (std::uint64_t seed = 250; seed < 253; ++seed) {
    Rng rng(seed);
    Graph g = grid_graph(3, 3, 6.0, false);
    RequestGenConfig gen;
    gen.num_requests = 40;
    std::vector<Request> reqs = generate_requests(g, gen, rng);
    const UfpInstance inst(std::move(g), std::move(reqs));
    const BoundedUfpResult run = bounded_ufp(inst, cfg);
    if (run.stopped_by_threshold && run.iterations > 0) ++threshold_stops;
    expect_fast_equals_generic(inst, cfg, &coverage);
  }
  EXPECT_EQ(threshold_stops, 3);
  EXPECT_GT(coverage.winners, 50);
}

TEST(CriticalPaymentFast, PowerOfTwoBidTiesSettleByRequestId) {
  // One edge that fits a single request: the rival bids 2, the winner 4,
  // so the first probe (mid = 2) ties the rival's density exactly and the
  // lower id takes it.
  for (const bool winner_first : {true, false}) {
    Graph g = Graph::directed(2);
    g.add_edge(0, 1, 1.0);
    g.finalize();
    const Request winner{0, 1, 0.5, 4.0};
    const Request rival{0, 1, 0.5, 2.0};
    const UfpInstance inst =
        winner_first ? UfpInstance(std::move(g), {winner, rival})
                     : UfpInstance(std::move(g), {rival, winner});
    const int r = winner_first ? 0 : 1;
    const BoundedUfpConfig cfg;
    const double fast = ufp_critical_value(inst, cfg, r);
    EXPECT_EQ(fast, ufp_critical_value(inst, make_bounded_ufp_rule(cfg), r));
    if (winner_first) {
      EXPECT_EQ(fast, 2.0);  // the tie itself wins
    } else {
      EXPECT_GT(fast, 2.0);  // must strictly outbid
    }
    WithheldCoverage coverage;
    expect_fast_equals_generic(inst, cfg, &coverage);
    EXPECT_EQ(coverage.winners, 1);
  }
}

TEST(CriticalPaymentFast, LoneWinnerIsTheLastRequestLeft) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 1, 1.0, 5.0}});
  const std::vector<WithheldRound> rounds =
      bounded_ufp_withheld(inst, BoundedUfpConfig{}, 0);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].winner, -1);
  EXPECT_TRUE(rounds[0].fits);
  WithheldCoverage coverage;
  expect_fast_equals_generic(inst, BoundedUfpConfig{}, &coverage);
  EXPECT_EQ(coverage.last_left, 1);
}


TEST(CriticalDemand, ThresholdBracketsWinLose) {
  const UfpInstance inst = competitive_instance(230);
  const UfpRule rule = saturating_rule();
  const UfpSolution base = rule(inst);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!base.is_selected(r)) continue;
    PaymentOptions options;
    options.tolerance = 1e-6;
    const double d_star = ufp_critical_demand(inst, rule, r, options);
    const Request& req = inst.request(r);
    EXPECT_GE(d_star, req.demand - 1e-12);
    EXPECT_LE(d_star, 1.0 + 1e-12);
    // Winning at the returned threshold...
    Request at = req;
    at.demand = d_star;
    EXPECT_TRUE(rule(inst.with_request(r, at)).is_selected(r)) << r;
    // ...and losing just above it (when the threshold is interior).
    if (d_star < 1.0 - 1e-3) {
      Request above = req;
      above.demand = std::min(1.0, d_star * (1.0 + 1e-3) + 1e-9);
      EXPECT_FALSE(rule(inst.with_request(r, above)).is_selected(r)) << r;
    }
  }
}

TEST(CriticalDemand, RequiresWinningRequest) {
  const UfpInstance inst = competitive_instance(231);
  const UfpRule rule = saturating_rule();
  const UfpSolution base = rule(inst);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (base.is_selected(r)) continue;
    EXPECT_THROW(ufp_critical_demand(inst, rule, r), std::invalid_argument);
    break;
  }
}

TEST(CriticalDemand, UncontestedWinnerHasFullHeadroom) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 0.3, 5.0}});
  const double d_star =
      ufp_critical_demand(inst, make_bounded_ufp_rule(), 0);
  EXPECT_DOUBLE_EQ(d_star, 1.0);
}

}  // namespace
}  // namespace tufp
