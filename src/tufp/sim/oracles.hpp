// The oracle catalogue: machine-checkable statements every world must
// satisfy, in three groups.
//
// Differential oracles run the same world through implementations that
// are promised to agree and diff the outcomes exactly:
//   * config-diff    — one canonical RunDigest per configuration leg:
//                      the production EpochEngine and the naive
//                      ReferenceEngine (sim/reference_engine.hpp), each
//                      under heap and bucket shortest-path kernels at 1
//                      and 4 solver threads, on the plain (all-infinite)
//                      and the churn replay. Every digest must equal the
//                      production heap-t1 digest of its replay, byte for
//                      byte; reference legs compare only the fields the
//                      reference defines (DESIGN.md §8, §12)
//   * engine-offline — one engine epoch over a fresh network vs the
//                      paper's one-shot mechanism (allocation + critical
//                      payments)
//   * payment-policy — allocation identical under kNone/kDualPrice/
//                      kCritical (payments must not steer allocation)
//
// Metamorphic oracles perturb the world in a direction with a provable
// consequence and check the consequence:
//   * bid-scaling     — scaling every value by λ > 0 leaves the
//                       allocation unchanged (selection minimizes
//                       (d/v)·|p|; a uniform λ cancels)
//   * winner-monotone — a winner raising its bid still wins; a loser
//                       lowering its bid still loses (Lemma 3.4)
//   * loser-removal   — deleting a loser changes nothing (a loser is
//                       never the per-iteration argmin, so the selection
//                       sequence is untouched)
//   * capacity-monotone — on a capacity-scaled copy the original
//                       solution stays feasible and the original value
//                       stays below the scaled copy's dual upper bound
//                       (OPT is monotone in capacity; Claim 3.6)
//
// Invariant oracles check single-run properties:
//   * feasible          — output exact + capacity-feasible (Lemma 3.3)
//   * dual-bound        — admitted value <= dual upper bound (Claim 3.6)
//   * residual-feasible — per-epoch residual in [0, base capacity] and
//                       cumulative load reconstructed from admitted paths
//                       matching base - residual
//   * payments-ir       — 0 <= payment <= bid for winners, losers pay
//                       zero (individual rationality + no positive
//                       transfers). This oracle prices through the sim
//                       payment rule, which is where fault injection
//                       plugs in.
//   * temporal-conserve — per epoch and per edge, active leased demand +
//                       residual == capacity, cross-checked against a
//                       sim-side lease replay reconstructed from the
//                       admission records (where kLeakExpiredCapacity
//                       injects).
//   * temporal-no-leak  — after the clock passes every finite expiry,
//                       each edge with no remaining lease holds its base
//                       capacity EXACTLY (==, not a tolerance: the
//                       ledger's snap-on-last-expiry rule).
//
// Fault injection exists to prove the harness catches bugs: the sim
// payment rule can be deliberately broken (seeded from the fuzz config,
// never by default) and the suite must flag and shrink the violation —
// the ctest acceptance check for the whole subsystem.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/sim/world.hpp"

namespace tufp::sim {

enum class FaultInjection {
  kNone,
  kOverchargeWinners,  // winners pay 1.05x their bid — breaks IR
  kChargeLosers,       // losers pay a token amount — breaks loser-pays-zero
  // The temporal-conserve oracle's sim-side lease replay "loses" 5% of
  // every expired lease's capacity — breaks lease conservation, proving
  // the temporal oracle suite bites (the temporal analogue of
  // kOverchargeWinners for payments).
  kLeakExpiredCapacity,
};

const char* fault_name(FaultInjection fault);
FaultInjection fault_from_name(const std::string& name);

struct OracleOptions {
  FaultInjection fault = FaultInjection::kNone;
  // Bisection-based checks (critical payments) cost O(winners · log 1/tol)
  // full re-solves; worlds with more requests than this skip them and rely
  // on the cheap dual-price pricing path instead.
  int critical_cap = 24;
};

struct Violation {
  std::string oracle;
  std::string detail;  // deterministic human-readable witness
};

// Handed to every oracle: the world, the options, and lazily-memoized
// shared computations — the base solver run and the engine replays that
// several oracles diff against. Lazy so a restricted suite (e.g. the
// shrinker probing one oracle up to 600 times) only pays for what the
// selected oracles actually read. Definition is internal to oracles.cpp.
struct OracleContext;

using OracleFn = std::vector<Violation> (*)(OracleContext&);

struct OracleEntry {
  const char* name;
  const char* summary;
  OracleFn fn;
};

// The full catalogue, in a fixed canonical order.
std::span<const OracleEntry> oracle_catalogue();

// Runs `only` (all when empty) against the world, concatenating violations
// in catalogue order. Throws std::invalid_argument on an unknown oracle
// name.
std::vector<Violation> run_oracle_suite(
    const SimWorld& world, const OracleOptions& options,
    std::span<const std::string> only = {});

// Wraps a bare instance (e.g. a loaded repro file) into a SimWorld with
// one-shot arrivals, so repros replay through exactly the same suite. The
// two-argument form restores the failing world's sampled solver config and
// epoch batching (a violation that only manifests under, say,
// run_to_saturation=false must replay under it); the bare form uses
// defaults (guard on, saturation mode).
SimWorld wrap_instance(UfpInstance instance);
SimWorld wrap_instance(UfpInstance instance, const BoundedUfpConfig& solver,
                       int max_batch);

// The sim payment rule: solver allocation plus per-request payments
// (critical-value when num_requests <= critical_cap, dual-price otherwise),
// with the configured fault applied. Exposed so tests can pin the fault
// semantics directly.
struct SimPricing {
  UfpSolution allocation;
  std::vector<double> payments;
};
SimPricing sim_price(const UfpInstance& instance,
                     const BoundedUfpConfig& solver,
                     const OracleOptions& options);

// ------------------------------------------------- canonical run digest

// One epoch of a replay: the engine's report with its wall-clock fields
// zeroed, and the per-edge residual and ledger view right after the clear.
struct EpochDigest {
  AdmissionReport report;
  std::vector<double> residual;
  std::vector<double> leased;  // the ledger's active leased demand per edge
};

// Everything deterministic one configuration leg produces on a world.
// Compared exactly (operator==, no tolerance) by digest_diff().
struct RunDigest {
  std::string leg;  // "production heap t1 churn", ...
  // The per-outcome rejection split, `decisions` and the warm-tree
  // reclaim counters are defined on production-engine legs only.
  bool production = true;
  // The one-shot solve of the whole world under the leg's solver
  // settings: each request's path (empty when unselected) and the dual
  // state at exit.
  std::vector<Path> one_shot;
  int one_shot_iterations = 0;
  double one_shot_final_dual_sum = 0.0;
  double one_shot_dual_upper_bound = 0.0;
  std::vector<EpochDigest> epochs;
  // State after the post-run horizon drain: the clock advanced past
  // every finite expiry and everything reclaimable reclaimed.
  int reclaimed_at_horizon = 0;
  std::vector<double> final_residual;
  std::vector<double> final_leased;
  std::vector<int> final_active_on_edge;
  std::int64_t final_active = 0;
  // Production only: the DecisionRecord stream (obs/trace.hpp; captured
  // when ReplayOptions::decisions is set) and the warm-tree reclaim
  // revalidation counters. Records compare field by field, doubles by
  // bit pattern: equal records render byte-identical lines, so this is
  // the rendered stream's comparison without rendering every leg.
  std::vector<obs::DecisionRecord> decisions;
  std::int64_t trees_kept_on_reclaim = 0;
  std::int64_t trees_dropped_on_reclaim = 0;
};

struct ReplayOptions {
  PaymentPolicy payments = PaymentPolicy::kDualPrice;
  int threads = 1;
  std::optional<SpKernel> kernel;  // unset: the world's sampled kernel
  // Live sampled durations (the admit -> expire -> re-admit replay);
  // false replays every request as a permanent lease.
  bool churn = false;
  // sim::ReferenceEngine instead of the production EpochEngine.
  bool reference = false;
  // Capture the production engine's decision stream.
  bool decisions = false;
};

// The one world-replay loop every engine-reading oracle shares: the
// world's requests in max_batch chunks through one engine (the
// AdmissionRecord sequence is the global request index), then a drain to
// a horizon past every finite expiry. Fills everything but the one-shot
// section.
RunDigest replay_world(const SimWorld& world, const ReplayOptions& options);
// The same loop through a caller-owned production engine, from whatever
// state it is in (no decision stream captured).
RunDigest replay_world(const SimWorld& world, bool churn, EpochEngine& engine);

// The first field in which `got` differs from `want`, as
// "<field>: <want value> vs <got value>"; empty when they agree on every
// field both legs define.
std::string digest_diff(const RunDigest& want, const RunDigest& got);

}  // namespace tufp::sim
