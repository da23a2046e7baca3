#include "tufp/ufp/bounded_ufp.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/detail/substrate.hpp"
#include "tufp/ufp/detail/workspace_access.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

// Algorithm 1's loop, written once against the substrate. A non-null
// `state` marks the engine's workspace solve: the first refresh may
// then be served from cross-epoch settled trees (bitwise-equivalent;
// detail/sp_cache.hpp), and the O(m) epoch-start arrays are cached
// across solves: they are reused verbatim when the view's stamp clock
// is unchanged — init_duals is deterministic over inputs the unchanged
// clock certifies as bitwise identical, so reuse is exact — and they
// stay reusable after the solve only when nothing was admitted
// (admissions are the sole mutation). A non-null `rounds` withholds
// request `withheld` from selection and records its view of every round
// (bounded_ufp_withheld).
BoundedUfpResult run_bounded_ufp(const detail::Substrate& sub,
                                 const BoundedUfpConfig& config,
                                 detail::SpCache& cache,
                                 detail::EpochSolveState* state = nullptr,
                                 int withheld = -1,
                                 std::vector<WithheldRound>* rounds = nullptr) {
  const double B = sub.B;
  const double eps = config.epsilon;
  const int R = static_cast<int>(sub.requests.size());

  BoundedUfpResult result{UfpSolution(R)};
  result.dual_upper_bound = kInf;

  detail::EpochSolveState local;
  detail::EpochSolveState& st = state != nullptr ? *state : local;
  const bool warm_start = state != nullptr;
  const bool reused = warm_start && st.valid && sub.clock >= 0 &&
                      st.clock == sub.clock &&
                      st.cap_data == sub.capacities.data() &&
                      st.cap_size == sub.capacities.size();
  if (!reused) {
    // Line 4: y_e = 1/c_e on active edges, D1(0) = sum c_e y_e = |active|.
    // The profile is kept current incrementally as y inflates: enables
    // the bucket-queue kernel while the key range is bounded (§6).
    st.profile = WeightProfile();  // init_duals folds, it does not reset
    detail::init_duals(sub, &st.y, &st.dual_sum, &st.profile);
    st.residual.assign(sub.capacities.begin(), sub.capacities.end());
    st.edge_stamp.assign(sub.capacities.size(), 0);
  }
  std::vector<double>& y = st.y;
  std::vector<double>& residual = st.residual;
  std::vector<std::int64_t>& edge_stamp = st.edge_stamp;
  double dual_sum = st.dual_sum;
  WeightProfile profile = st.profile;
  const double threshold = std::exp(eps * (B - 1.0));
  std::int64_t now = 0;

  std::vector<int> remaining(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;

  const std::span<const double> guard_residual =
      config.capacity_guard ? std::span<const double>(residual)
                            : std::span<const double>();

  double primal_value = 0.0;

  // Line 5: while (L != empty and sum c_e y_e <= e^{eps(B-1)}).
  while (!remaining.empty()) {
    if (!config.run_to_saturation && dual_sum > threshold) {
      result.stopped_by_threshold = true;
      break;
    }
    ++now;
    // now == 1 is the only refresh whose weights are still the
    // epoch-start duals the cross-epoch trees were stored under.
    cache.refresh(y, edge_stamp, now, remaining, config.lazy_shortest_paths,
                  guard_residual, &profile, sub.blocked,
                  /*epoch_start=*/warm_start && now == 1);
    result.sp_computations +=
        static_cast<std::int64_t>(cache.recomputed_last_refresh());
    result.sp_tree_runs += cache.tree_runs_last_refresh();

    // Line 9: request minimizing (d_r/v_r)|p_r|; deterministic tie-break on
    // request id. alpha_cert tracks the minimum over *all* remaining
    // reachable requests (needed for the dual certificate regardless of
    // which requests the guard filters).
    int best = -1;
    double best_priority = kInf;
    double alpha_cert = kInf;
    for (int r : remaining) {
      const auto& entry = cache.entry(r);
      if (!entry.reachable) continue;
      const Request& req = sub.requests[static_cast<std::size_t>(r)];
      const double priority = req.demand / req.value * entry.length;
      alpha_cert = std::min(alpha_cert, priority);
      if (r == withheld) continue;
      // Guard status is cached in the entry (sp_cache.hpp): it can only
      // change when the entry itself goes stale, so no per-iteration
      // path rescan. Sound here because this loop's residual is monotone
      // non-increasing and every decrement stamps its edge; a driver that
      // ever *returns* capacity mid-run (lease reclaim) must stamp the
      // reclaimed edges too, or this read serves stale negative verdicts.
      if (config.capacity_guard && !entry.fits) continue;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }

    if (alpha_cert < kInf && alpha_cert > 0.0) {
      // Claim 3.6 machinery: (y/alpha, z) with z_r = v_r for selected
      // requests is dual feasible, so its value bounds the fractional OPT.
      result.dual_upper_bound = std::min(result.dual_upper_bound,
                                         dual_sum / alpha_cert + primal_value);
    }

    if (rounds != nullptr) {
      const auto& entry = cache.entry(withheld);
      rounds->push_back(
          {entry.length,
           entry.reachable && (!config.capacity_guard || entry.fits), best,
           best_priority});
    }

    if (best < 0) break;  // nothing reachable (or nothing fits under guard)

    // Lines 10-12: inflate weights along the chosen path, commit request.
    const Request& req = sub.requests[static_cast<std::size_t>(best)];
    const auto& entry = cache.entry(best);
    const double dual_before = dual_sum;
    for (EdgeId e : entry.path) {
      const auto ei = static_cast<std::size_t>(e);
      const double cap = sub.capacities[ei];
      const double old_y = y[ei];
      y[ei] = old_y * std::exp(eps * B * req.demand / cap);
      dual_sum += cap * (y[ei] - old_y);
      edge_stamp[ei] = now;
      residual[ei] -= req.demand;
      profile.include(y[ei]);
    }
    result.solution.assign(best, entry.path);
    primal_value += req.value;
    ++result.iterations;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));

    if (config.record_trace) {
      result.trace.push_back({best, best_priority, dual_before, primal_value});
    }
  }

  // Everything routed: the solution is optimal, so its own value is a
  // valid (tight) upper bound.
  if (remaining.empty()) {
    result.dual_upper_bound = std::min(result.dual_upper_bound, primal_value);
  }

  if (config.classify_rejections) {
    // Serial exit-state classification (DESIGN.md §14): every input here —
    // cached entries, the live residual, the epoch-start capacities — is a
    // deterministic function of the admission history, so the records are
    // byte-identical across kernels and thread counts.
    // Staleness is benign AND deterministic: in saturation mode the loop
    // exits right after a refresh (entries fresh); under the faithful
    // threshold any still-fitting request is lost_auction regardless of
    // whether a late winner touched its path.
    result.warm.resize(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      result.warm[static_cast<std::size_t>(r)] =
          cache.entry(r).warm ? 1 : 0;
    }
    result.rejections.reserve(remaining.size());
    for (const int r : remaining) {  // ascending: erase() keeps the order
      const auto& entry = cache.entry(r);
      const Request& req = sub.requests[static_cast<std::size_t>(r)];
      RejectionRecord rec;
      rec.request = r;
      if (!entry.reachable) {
        rec.reason = RejectReason::kNoPath;
      } else if (entry.length >= kInf) {
        // Threshold crossed before the first refresh ever ran: nothing
        // was computed, the request simply never got an auction round.
        rec.reason = RejectReason::kLostAuction;
      } else {
        rec.density = req.demand / req.value * entry.length;
        rec.path = entry.path;
        if (detail::path_fits(entry.path, residual, req.demand)) {
          rec.reason = RejectReason::kLostAuction;
        } else {
          const std::span<const double> at_start = sub.capacities;
          rec.reason = detail::path_fits(entry.path, at_start, req.demand)
                           ? RejectReason::kCapacityRace
                           : RejectReason::kBlockedAtStart;
          const std::span<const double> judged =
              rec.reason == RejectReason::kCapacityRace
                  ? std::span<const double>(residual)
                  : at_start;
          for (const EdgeId e : entry.path) {
            if (judged[static_cast<std::size_t>(e)] + detail::kFitSlack <
                req.demand) {
              rec.bottleneck = e;
              break;
            }
          }
        }
      }
      result.rejections.push_back(std::move(rec));
    }
  }

  result.final_dual_sum = dual_sum;
  if (state != nullptr) {
    // Admissions mutated the arrays in place; only an untouched solve
    // leaves them at their epoch-start values for the next epoch.
    st.valid = result.iterations == 0;
    st.clock = sub.clock;
    st.cap_data = sub.capacities.data();
    st.cap_size = sub.capacities.size();
    if (config.export_duals) result.y = y;  // the cache keeps its copy
  } else if (config.export_duals) {
    result.y = std::move(y);
  }
  return result;
}

}  // namespace

BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  const detail::Substrate sub = detail::substrate_of(instance);
  detail::validate_config(sub, config);
  detail::SpCache cache(instance, config.num_threads, config.sp_kernel);
  return run_bounded_ufp(sub, config, cache);
}

std::vector<WithheldRound> bounded_ufp_withheld(
    const ResidualView& view, std::span<const Request> requests,
    const BoundedUfpConfig& config, int withheld) {
  TUFP_REQUIRE(withheld >= 0 && withheld < static_cast<int>(requests.size()),
               "withheld request index out of range");
  const detail::Substrate sub = detail::substrate_of(view, requests);
  detail::validate_requests(sub);
  detail::validate_config(sub, config);
  // Neither the exit classification nor the dual export changes a
  // selection, so the withheld solve skips both.
  BoundedUfpConfig cfg = config;
  cfg.classify_rejections = false;
  cfg.export_duals = false;
  cfg.record_trace = false;
  detail::SpCache cache(view.base(), requests, cfg.num_threads, cfg.sp_kernel);
  std::vector<WithheldRound> rounds;
  run_bounded_ufp(sub, cfg, cache, /*state=*/nullptr, withheld, &rounds);
  return rounds;
}

BoundedUfpResult bounded_ufp(const ResidualView& view,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace) {
  const detail::Substrate sub = detail::substrate_of(view, requests);
  detail::validate_requests(sub);
  detail::validate_config(sub, config);
  detail::SpCache& cache = detail::WorkspaceAccess::bind_cache(
      workspace, view.owner(), requests, config.num_threads,
      config.sp_kernel);
  return run_bounded_ufp(sub, config, cache,
                         &detail::WorkspaceAccess::solve_state(workspace));
}

}  // namespace tufp
