// LP randomized rounding — the classical (1+eps) technique the paper's
// introduction rules out for mechanism design.
//
// Solves the Figure-1 relaxation exactly (path-enumerated simplex), scales
// the fractional solution by a safety factor, samples one path per request
// with the scaled marginals, then repairs any capacity violations by
// dropping offending low-value requests. In the B = Omega(ln m) regime the
// repair step almost never fires (Chernoff), so the value tracks the
// fractional optimum — but the allocation is NOT monotone in the declared
// types, which the monotonicity auditor demonstrates (bench E8): this is
// the paper's motivation for a deterministic primal-dual mechanism.
//
// The rounding is a deterministic function of (instance, seed): the
// "mechanism" formed from it with critical payments is well defined, just
// not truthful. The seed is an explicit call parameter — the entire state
// of the coin flips — and the implementation draws from a local
// Xoshiro256** stream with no shared or global state, so concurrent calls
// (e.g. the lab's parallel beta sweeps) are race-free and reproducible
// per-call.
#pragma once

#include <cstdint>

#include "tufp/graph/path_enum.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/solution.hpp"

namespace tufp {

struct RoundingConfig {
  double scale = 0.98;  // multiplies the fractional marginals before sampling
  PathEnumOptions path_enum;
};

struct RoundingResult {
  UfpSolution solution;
  double fractional_optimum = 0.0;
  int sampled = 0;   // requests drawn before repair
  int dropped = 0;   // requests removed by the feasibility repair
};

RoundingResult randomized_rounding_ufp(const UfpInstance& instance,
                                       std::uint64_t seed,
                                       const RoundingConfig& config = {});

}  // namespace tufp
