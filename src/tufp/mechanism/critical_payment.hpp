// Critical-value payments: the pricing half of a truthful mechanism.
//
// For a monotone allocation rule the set of winning declared values of an
// agent (everything else fixed) is an up-closed interval; its infimum is
// the agent's *critical value*, and charging exactly that makes
// truth-telling a dominant strategy (Theorem 2.3). Monotonicity makes the
// critical value computable by bisection on the declared value. For a
// generic rule each probe re-runs the rule on a single-declaration variant
// of the instance. The epoch engine prices Bounded-UFP winners over its
// residual view instead, where one solve per winner answers every probe:
// the solve with the winner withheld from selection records, round by
// round, the winner's path length and the round winner's priority, and a
// probe at bid v replays the selection comparison over those rounds
// (bounded_ufp_withheld). Both paths run the same bisection, so over the
// same active edges their payments are bitwise equal. Losers pay zero
// (normalization).
//
// The bisection brackets theta within a configurable relative tolerance;
// payments are reported as the upper end of the bracket, so they never
// undercharge by more than the bracket width and never exceed the declared
// value (individual rationality).
#pragma once

#include <span>
#include <vector>

#include "tufp/graph/residual_csr.hpp"
#include "tufp/mechanism/allocation_rule.hpp"

namespace tufp {

struct PaymentOptions {
  // Bisection stops when hi - lo <= tolerance * max(1, hi).
  double tolerance = 1e-6;
  int max_bisection_steps = 80;
};

struct UfpMechanismResult {
  UfpSolution allocation;
  std::vector<double> payments{};   // per request; 0 for losers
  std::vector<double> utilities{};  // v_r - payment for winners, else 0
  long rule_evaluations = 0;      // total allocation-rule re-runs
};

struct MucaMechanismResult {
  MucaSolution allocation;
  std::vector<double> payments{};
  std::vector<double> utilities{};
  long rule_evaluations = 0;
};

// Runs allocation + critical payments for every winner. The rule must be
// monotone for the output to be a truthful mechanism; the function itself
// only requires that rule(instance) is deterministic.
UfpMechanismResult run_ufp_mechanism(const UfpInstance& instance,
                                     const UfpRule& rule,
                                     const PaymentOptions& options = {});

MucaMechanismResult run_muca_mechanism(const MucaInstance& instance,
                                       const MucaRule& rule,
                                       const PaymentOptions& options = {});

// The critical value of request r under `rule` at its declared demand
// (bisection; requires r to win at its declared value). Exposed for tests
// and the truthfulness auditors.
double ufp_critical_value(const UfpInstance& instance, const UfpRule& rule,
                          int r, const PaymentOptions& options = {},
                          long* evaluations = nullptr);

// The same critical value under make_bounded_ufp_rule(config) for
// request r of `requests` over the epoch engine's residual view, from one
// withheld solve instead of one solve per probe. Bitwise equal to the
// overload above on the instance the view's active edges compile to
// (sim/snapshot.hpp).
double ufp_critical_value(const ResidualView& view,
                          std::span<const Request> requests,
                          const BoundedUfpConfig& config, int r,
                          const PaymentOptions& options = {});

double muca_critical_value(const MucaInstance& instance, const MucaRule& rule,
                           int r, const PaymentOptions& options = {},
                           long* evaluations = nullptr);

// The other axis of the two-parameter type (d_r, v_r): the largest demand
// at which request r still wins, holding its declared value fixed.
// Monotonicity (Definition 2.1) makes the winning demand set down-closed,
// so the threshold is well defined; the bisection searches (declared, 1]
// and returns the known-winning end of the bracket. Requires r to win at
// its declared demand. Useful for diagnosing how much headroom a winner
// has, and exercised by the truthfulness tests (over-declaring demand
// beyond this threshold loses).
double ufp_critical_demand(const UfpInstance& instance, const UfpRule& rule,
                           int r, const PaymentOptions& options = {},
                           long* evaluations = nullptr);

}  // namespace tufp
