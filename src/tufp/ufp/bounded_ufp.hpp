// Algorithm 1: Bounded-UFP(eps) — the paper's primary contribution.
//
// A deterministic, monotone, exact primal-dual algorithm for the
// Omega(ln m)-bounded unsplittable flow problem achieving approximation
// (1+eps)*e/(e-1) (Theorem 3.1). Maintains dual weights y_e = (1/c_e) *
// e^{eps*B*f_e/c_e}; each iteration satisfies the request minimizing the
// normalized shortest-path length (d_r/v_r)*|p_r| and exponentially
// inflates the weights along the chosen path; stops when the dual value
// sum_e c_e*y_e crosses e^{eps*(B-1)}.
//
// Monotonicity (Lemma 3.4) + exactness (Def. 2.2) make the algorithm a
// truthful mechanism when combined with critical-value payments
// (Theorem 2.3; see mechanism/critical_payment.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/solution.hpp"
#include "tufp/ufp/workspace.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

struct BoundedUfpConfig {
  // Accuracy parameter in (0,1]. Theorem 3.1 invokes the algorithm with
  // eps/6 to obtain the (1+eps)*e/(e-1) guarantee in the ln(m)/eps^2
  // regime; the config takes the raw algorithm parameter.
  double epsilon = 1.0 / 6.0;

  // Paper-faithful Algorithm 1 never checks residual capacity — Lemma 3.3
  // proves feasibility from the threshold alone, but only in the
  // B = Omega(ln m) regime. With the guard on, a request whose current
  // shortest path does not fit the residual capacities is skipped for the
  // round; this keeps outputs feasible on arbitrary instances and
  // preserves monotonicity and exactness (DESIGN.md §6).
  bool capacity_guard = true;

  // Reuse cached shortest paths whose edges were untouched since their
  // computation (provably equivalent; see detail/sp_cache.hpp). Off only
  // for the equivalence tests / ablation bench.
  bool lazy_shortest_paths = true;

  // Ignore the e^{eps(B-1)} stopping threshold and keep selecting while
  // anything fits. Off-paper convenience for out-of-regime instances
  // (where the faithful threshold can be below the initial dual value m
  // and the loop would exit immediately); requires capacity_guard, which
  // then solely enforces feasibility. The approximation guarantee of
  // Theorem 3.1 applies only to the faithful setting.
  bool run_to_saturation = false;

  // Threads for the per-source shortest-path trees (util/parallel.hpp):
  // 1 = serial, 0 = std::thread::hardware_concurrency(). Deterministic
  // for any thread count.
  int num_threads = 0;

  // Shortest-path queue discipline. kAuto runs the monotone bucket queue
  // while the dual weights' key range allows it and falls back to the
  // heap as saturation spreads them (DESIGN.md §6); kHeap/kBucket force
  // a kernel (tests, ablation benches).
  SpKernel sp_kernel = SpKernel::kAuto;

  // Record one IterationRecord per selection (tests/benches).
  bool record_trace = false;

  // Classify every unselected request at loop exit (result.rejections)
  // and export per-request warm-tree provenance (result.warm). The
  // classification reads only the solver's own deterministic exit state —
  // cached entries, the live residual, the epoch-start capacities — so
  // records are identical across kernels and thread counts (the
  // config-diff oracle's contract, DESIGN.md §14).
  // Cost: O(rejected × path length) once per solve.
  bool classify_rejections = false;

  // Populate result.y with the final dual weights. Only dual-certificate
  // consumers need them; the epoch engine turns this off so a clean epoch
  // (nothing admitted) costs no O(m) export. Never changes the solution.
  bool export_duals = true;
};

struct IterationRecord {
  int request = -1;
  double alpha = 0.0;       // normalized length of the selected path, alpha(i)
  double dual_sum = 0.0;    // D1(i) = sum_e c_e y_e before the update
  double primal_value = 0.0;  // P(i+1), value routed after this selection
};

// Why an unselected request lost, judged at loop exit (DESIGN.md §14).
// The solver speaks capacity language only; the engine reports
// kCapacityRace (the request lost an intra-epoch capacity race to
// earlier winners) under the wire name shard_conflict.
enum class RejectReason {
  kNoPath,          // no residual-feasible route exists at all
  kBlockedAtStart,  // candidate path short of capacity even at epoch start
  kCapacityRace,    // fit at epoch start, displaced by this epoch's winners
  kLostAuction,     // path feasible at exit; density never won an iteration
};

struct RejectionRecord {
  int request = -1;
  RejectReason reason = RejectReason::kLostAuction;
  // (d_r/v_r)·|p_r|_y at exit — the density that kept losing (reachable
  // requests only; zero when no path was ever computed).
  double density = 0.0;
  // First candidate-path edge short of the relevant capacity vector
  // (kBlockedAtStart: epoch-start; kCapacityRace: live residual); -1
  // otherwise.
  EdgeId bottleneck = -1;
  // The cached candidate path the classification inspected.
  Path path;
};

struct BoundedUfpResult {
  UfpSolution solution;
  int iterations = 0;

  // sum_e c_e y_e when the loop exited.
  double final_dual_sum = 0.0;
  // Final dual weights y_e (inputs to dual_certificate / diagnostics).
  std::vector<double> y{};

  // Best (smallest) dual-feasible upper bound on the *fractional* optimum
  // observed during the run: min_i D1(i)/alpha(i) + P(i) (Claim 3.6).
  // Always >= OPT >= solution value, so value/dual_upper_bound lower-bounds
  // the true approximation quality of this run.
  double dual_upper_bound = 0.0;

  // True when the loop exited because sum c_e y_e > e^{eps(B-1)}; false
  // when every request was routed (output provably optimal) or, under the
  // capacity guard, when no remaining request fit.
  bool stopped_by_threshold = false;

  // Total shortest-path recomputations (cache entries refilled). The
  // naive loop costs iterations * |remaining| of them; lazy invalidation
  // only recomputes requests whose cached path touched updated edges
  // (DESIGN.md §6).
  std::int64_t sp_computations = 0;

  // Dijkstra tree searches actually run: one per source shard with a
  // stale entry, so sp_tree_runs <= sp_computations with equality only
  // when no two stale requests ever share a source.
  std::int64_t sp_tree_runs = 0;

  std::vector<IterationRecord> trace{};

  // classify_rejections only: one record per unselected request in
  // ascending request order, and per-request warm-tree provenance
  // (sp_cache Entry::warm at exit) for every request, winners included.
  std::vector<RejectionRecord> rejections{};
  std::vector<std::uint8_t> warm{};
};

// Preconditions: normalized instance (d_r <= 1), B >= 1, eps in (0,1],
// eps*B within safe double exponent range (util/math.hpp).
BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config = {});

// One selection round of a withheld solve, seen from the withheld request.
struct WithheldRound {
  // |p|_y of the withheld request's shortest path after the round's
  // refresh, and whether that path was a candidate at all: reachable and,
  // under the capacity guard, fitting the residual capacities.
  double length = kInf;
  bool fits = false;
  // The round's selection among the other requests and its priority
  // (d/v)·|p|_y; -1 and kInf when none of them fits (the solve's last
  // round).
  int winner = -1;
  double winner_priority = kInf;
};

// Algorithm 1 over the epoch engine's residual view with request
// `withheld` kept in every shortest-path refresh but never selectable; one
// WithheldRound per round. Selection reads a request's value only
// through the argmin of (d/v)·|p|_y, so the solve with `withheld`
// declaring any value v runs these same rounds until the first one it
// wins — which is what critical-value bisection probes ask
// (mechanism/critical_payment.hpp). Rejections, duals and the trace are
// not produced, and no workspace is used (a workspace never changes a
// selection). Preconditions as the view overload of bounded_ufp below.
std::vector<WithheldRound> bounded_ufp_withheld(
    const ResidualView& view, std::span<const Request> requests,
    const BoundedUfpConfig& config, int withheld);

// The epoch engine's solve: over a persistent residual view without
// compiling a per-epoch instance. Edge ids are base-graph ids; blocked
// edges are excluded from every search and carry y = 0 in result.y.
// Preconditions as above with B = the view's min active residual and at
// least one active edge. The workspace must be bound to the view's
// residual graph and to config's num_threads and sp_kernel; it reuses
// the shortest-path cache, shard plan and cross-epoch settled trees
// across calls, and results are bitwise identical to bounded_ufp over
// the instance the view's active edges compile to (sim/snapshot.hpp).
BoundedUfpResult bounded_ufp(const ResidualView& view,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace);

}  // namespace tufp
