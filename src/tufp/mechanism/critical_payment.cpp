#include "tufp/mechanism/critical_payment.hpp"

#include <algorithm>

#include "tufp/util/assert.hpp"

namespace tufp {

namespace {

// Generic bisection for the winning threshold of a monotone predicate
// wins(v): wins(declared) must hold; returns an upper bracket of
// inf{v : wins(v)}. Never probes v <= 0 (values must stay positive).
template <typename WinsAt>
double bisect_critical(double declared, WinsAt&& wins_at,
                       const PaymentOptions& options, long* evaluations) {
  double lo = 0.0;   // known-losing (or the open limit v -> 0+)
  double hi = declared;  // known-winning
  for (int step = 0; step < options.max_bisection_steps; ++step) {
    if (hi - lo <= options.tolerance * std::max(1.0, hi)) break;
    const double mid = 0.5 * (lo + hi);
    if (mid <= 0.0) break;
    if (evaluations != nullptr) ++*evaluations;
    if (wins_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

double ufp_critical_value(const UfpInstance& instance, const UfpRule& rule,
                          int r, const PaymentOptions& options,
                          long* evaluations) {
  const Request& declared = instance.request(r);
  const auto wins_at = [&](double v) {
    Request probe = declared;
    probe.value = v;
    return rule(instance.with_request(r, probe)).is_selected(r);
  };
  return bisect_critical(declared.value, wins_at, options, evaluations);
}

double ufp_critical_value(const ResidualView& view,
                          std::span<const Request> requests,
                          const BoundedUfpConfig& config, int r,
                          const PaymentOptions& options) {
  // Answers each probe from the rounds of one withheld solve: the probe
  // solve at bid v runs those rounds until r first beats the round's
  // winner, compared exactly as the solver's selection loop compares —
  // the same float expression, `<` or a tie settled by the lower id.
  const std::vector<WithheldRound> rounds =
      bounded_ufp_withheld(view, requests, config, r);
  const Request& declared = requests[static_cast<std::size_t>(r)];
  const auto wins_at = [&](double v) {
    for (const WithheldRound& round : rounds) {
      if (!round.fits) continue;
      const double priority = declared.demand / v * round.length;
      if (priority < round.winner_priority ||
          (priority == round.winner_priority && r < round.winner)) {
        return true;
      }
    }
    return false;
  };
  return bisect_critical(declared.value, wins_at, options, nullptr);
}

double muca_critical_value(const MucaInstance& instance, const MucaRule& rule,
                           int r, const PaymentOptions& options,
                           long* evaluations) {
  const MucaRequest& declared = instance.request(r);
  const auto wins_at = [&](double v) {
    MucaRequest probe = declared;
    probe.value = v;
    return rule(instance.with_request(r, probe)).is_selected(r);
  };
  return bisect_critical(declared.value, wins_at, options, evaluations);
}

double ufp_critical_demand(const UfpInstance& instance, const UfpRule& rule,
                           int r, const PaymentOptions& options,
                           long* evaluations) {
  const Request& declared = instance.request(r);
  const auto wins_at = [&](double d) {
    Request probe = declared;
    probe.demand = d;
    return rule(instance.with_request(r, probe)).is_selected(r);
  };
  if (evaluations != nullptr) ++*evaluations;
  TUFP_REQUIRE(wins_at(declared.demand),
               "critical demand is defined for winning requests");
  double lo = declared.demand;  // known winning
  double hi = 1.0;              // normalized ceiling, possibly winning too
  if (evaluations != nullptr) ++*evaluations;
  if (wins_at(hi)) return hi;
  for (int step = 0; step < options.max_bisection_steps; ++step) {
    if (hi - lo <= options.tolerance * std::max(1.0, hi)) break;
    const double mid = 0.5 * (lo + hi);
    if (evaluations != nullptr) ++*evaluations;
    if (wins_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

UfpMechanismResult run_ufp_mechanism(const UfpInstance& instance,
                                     const UfpRule& rule,
                                     const PaymentOptions& options) {
  UfpMechanismResult result{rule(instance)};
  const int R = instance.num_requests();
  TUFP_CHECK(result.allocation.num_requests() == R,
             "rule returned a solution of the wrong arity");
  result.payments.assign(static_cast<std::size_t>(R), 0.0);
  result.utilities.assign(static_cast<std::size_t>(R), 0.0);
  for (int r = 0; r < R; ++r) {
    if (!result.allocation.is_selected(r)) continue;
    const double payment =
        ufp_critical_value(instance, rule, r, options, &result.rule_evaluations);
    result.payments[static_cast<std::size_t>(r)] = payment;
    result.utilities[static_cast<std::size_t>(r)] =
        instance.request(r).value - payment;
  }
  return result;
}

MucaMechanismResult run_muca_mechanism(const MucaInstance& instance,
                                       const MucaRule& rule,
                                       const PaymentOptions& options) {
  MucaMechanismResult result{rule(instance)};
  const int R = instance.num_requests();
  TUFP_CHECK(result.allocation.num_requests() == R,
             "rule returned a solution of the wrong arity");
  result.payments.assign(static_cast<std::size_t>(R), 0.0);
  result.utilities.assign(static_cast<std::size_t>(R), 0.0);
  for (int r = 0; r < R; ++r) {
    if (!result.allocation.is_selected(r)) continue;
    const double payment = muca_critical_value(instance, rule, r, options,
                                               &result.rule_evaluations);
    result.payments[static_cast<std::size_t>(r)] = payment;
    result.utilities[static_cast<std::size_t>(r)] =
        instance.request(r).value - payment;
  }
  return result;
}

}  // namespace tufp
