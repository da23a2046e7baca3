// Certified upper bounds on the UFP optimum — the denominator of every
// empirical approximation ratio the evaluation lab reports (DESIGN.md §9).
//
// A bound is *certified* when it provably dominates the true integral
// optimum of the instance. The lab's hierarchy, cheapest-sound to
// tightest:
//
//   * claim36    — Claim 3.6's primal-dual bound min_i D1(i)/alpha(i) +
//                  P(i) observed along a Bounded-UFP run, tightened by the
//                  best rescaled certificate of the run's final weights
//                  (ufp/dual_certificate.hpp). Always available; the same
//                  implementation the sim oracle suite checks solver
//                  output against (sim/oracles.cpp), so the lab and the
//                  fuzzer can never disagree about what "within the dual
//                  bound" means.
//   * gk-dual    — weak LP duality over the Garg-Könemann run's final row
//                  duals, again rescaled through best_dual_bound. GK's
//                  primal objective lower-bounds the fractional optimum
//                  and this certificate upper-bounds it, so the pair
//                  brackets the LP value without ever solving it exactly.
//                  Scales to instances far beyond the simplex.
//   * packing-lp — the exact Figure-1 fractional optimum (dense simplex
//                  over exhaustively enumerated paths). The tightest
//                  polynomial certificate, but only on instances whose
//                  path sets enumerate completely; the provider gates on
//                  request count and reports "unavailable" (never throws)
//                  when enumeration truncates.
//
// Every provider is a pure function of the instance: identical inputs
// yield identical bounds, which is what makes the lab's parallel sweep
// deterministic and its JSON artifacts byte-comparable across runs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tufp/graph/path_enum.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/dual_certificate.hpp"
#include "tufp/ufp/instance.hpp"

namespace tufp::lab {

struct UpperBound {
  double value = 0.0;   // meaningful only when available
  bool available = false;
  std::string method;   // provider name that produced the value
};

class UpperBoundProvider {
 public:
  virtual ~UpperBoundProvider() = default;
  virtual const char* name() const = 0;
  // Unavailable (not an exception) when the provider does not apply to
  // this instance — too many requests, truncated path enumeration, ...
  virtual UpperBound bound(const UfpInstance& instance) const = 0;
};

// The solver configuration certified bounds are computed under: paper
// epsilon, capacity guard on, run to saturation (so out-of-regime
// instances still produce non-trivial duals), strictly serial — providers
// run inside the sweep's parallel_for cells, where nested calls run
// inline.
BoundedUfpConfig certifying_solver_config(double epsilon = 1.0 / 6.0);

// The shared Claim 3.6 implementation lives in ufp/dual_certificate.hpp
// (the sim oracles depend on it too, and sim must not reach up into
// lab); re-exported here because it is the lab's always-available bound.
using tufp::claim36_upper_bound;

struct PackingLpBoundOptions {
  int max_requests = 20;  // gate before touching path enumeration
  // Declining must be cheap, not just loud: failing instances give up
  // after max_paths (instead of enumerating the default 100k first), and
  // the pivot cap stops the dense simplex from grinding on wide tableaus
  // — a tight mesh at small beta can otherwise burn minutes before
  // answering. When either budget trips the provider declines and the
  // sweep falls through to gk-dual/claim36.
  //
  // max_hops stays unrestricted: the hop cutoff drops long paths without
  // setting `truncated`, which would silently shrink the LP below the
  // true optimum — fatal for a bound that claims certification. Only
  // max_paths (which does flag truncation) may bound the enumeration.
  PathEnumOptions path_enum{.max_paths = 800, .max_hops = -1};
  std::int64_t max_pivots = 20000;
};

std::unique_ptr<UpperBoundProvider> make_claim36_provider(
    const BoundedUfpConfig& config);
std::unique_ptr<UpperBoundProvider> make_gk_dual_provider(
    double epsilon = 0.1, int max_requests = 4096);
std::unique_ptr<UpperBoundProvider> make_packing_lp_provider(
    const PackingLpBoundOptions& options = {});

// The full hierarchy above, in fixed canonical order.
std::vector<std::unique_ptr<UpperBoundProvider>> standard_providers(
    double epsilon = 1.0 / 6.0);

// Tightest available bound across `providers` (ties keep the earlier
// provider, so the result is order-deterministic). Unavailable only when
// every provider declined — impossible for the standard hierarchy, whose
// claim36 member always answers.
UpperBound best_upper_bound(
    std::span<const std::unique_ptr<UpperBoundProvider>> providers,
    const UfpInstance& instance);

}  // namespace tufp::lab
