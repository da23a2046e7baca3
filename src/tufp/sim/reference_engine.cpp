#include "tufp/sim/reference_engine.hpp"

#include <algorithm>
#include <utility>

#include "tufp/engine/snapshot.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/timer.hpp"

namespace tufp::sim {

ReferenceEngine::ReferenceEngine(std::shared_ptr<const Graph> base_graph,
                                 EpochEngineConfig config)
    : base_(std::move(base_graph)),
      config_(std::move(config)),
      residual_(base_->capacities().begin(), base_->capacities().end()),
      ledger_(base_->num_edges(),
              temporal::LeaseLedgerConfig{config_.lease_tick_seconds}) {
  TUFP_REQUIRE(config_.payments != PaymentPolicy::kCritical,
               "the reference engine prices kNone and kDualPrice only");
  for (const double c : base_->capacities()) total_capacity_ += c;
}

int ReferenceEngine::reclaim_expired(double now) {
  TUFP_SPAN("reclaim");
  return ledger_.reclaim_until(std::max(now, ledger_.now()),
                               base_->capacities(), residual_);
}

AdmissionReport ReferenceEngine::run_epoch(
    const std::vector<TimedRequest>& batch) {
  TUFP_SPAN("epoch");
  WallTimer timer;
  AdmissionReport report;
  report.epoch = epoch_++;
  report.batch_size = static_cast<int>(batch.size());
  const double close_time = batch.empty() ? 0.0 : batch.back().arrival_time;
  report.close_time = close_time;
  {
    WallTimer reclaim_timer;
    report.expired_leases = reclaim_expired(close_time);
    report.reclaim_seconds = reclaim_timer.elapsed_seconds();
  }
  const auto finish = [&] {
    report.active_leases = ledger_.active_count();
    report.occupancy = total_capacity_ > 0.0
                           ? ledger_.leased_capacity() / total_capacity_
                           : 0.0;
    report.solve_seconds = timer.elapsed_seconds();
  };

  std::vector<Request> requests;
  std::vector<int> batch_index;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TimedRequest& t = batch[i];
    report.max_admission_delay = std::max(
        report.max_admission_delay, std::max(0.0, close_time - t.arrival_time));
    if (!is_valid_bid(t, base_->num_vertices())) {
      ++report.invalid_rejected;
      continue;
    }
    report.offered_value += t.request.value;
    requests.push_back(t.request);
    batch_index.push_back(static_cast<int>(i));
  }

  const GraphSnapshot snapshot = [&] {
    TUFP_SPAN("snapshot");
    return GraphSnapshot::compile(base_, residual_,
                                  config_.min_usable_capacity);
  }();
  report.active_edges = snapshot.num_active_edges();
  report.saturated_edges = snapshot.num_saturated_edges();
  report.min_residual =
      report.active_edges > 0 ? snapshot.min_residual() : 0.0;
  if (requests.empty() || report.active_edges == 0) {
    finish();
    return report;
  }

  // The production engine's solver settings, rejection classification
  // included although nothing here reads it: the bench's snapshot rows
  // must time the same per-epoch solve.
  BoundedUfpConfig solver_cfg = config_.solver;
  solver_cfg.capacity_guard = true;
  solver_cfg.epsilon =
      std::min(solver_cfg.epsilon, kMaxSafeExponent / snapshot.min_residual());
  solver_cfg.export_duals = false;
  solver_cfg.classify_rejections = true;
  solver_cfg.record_trace = config_.payments == PaymentPolicy::kDualPrice;
  const UfpInstance instance(snapshot.graph(), requests);
  const BoundedUfpResult run = [&] {
    TUFP_SPAN("solve");
    return bounded_ufp(instance, solver_cfg);
  }();
  report.solver_iterations = run.iterations;
  report.sp_computations = run.sp_computations;
  report.sp_tree_runs = run.sp_tree_runs;
  report.dual_upper_bound = run.dual_upper_bound;

  std::vector<double> payments(requests.size(), 0.0);
  {
    TUFP_SPAN("payments");
    for (const IterationRecord& it : run.trace) {
      const auto r = static_cast<std::size_t>(it.request);
      payments[r] = requests[r].value * std::min(1.0, it.alpha);
    }
  }

  TUFP_SPAN("commit");
  for (int r = 0; r < instance.num_requests(); ++r) {
    if (!run.solution.is_selected(r)) continue;
    const auto ri = static_cast<std::size_t>(r);
    const TimedRequest& timed =
        batch[static_cast<std::size_t>(batch_index[ri])];
    const Path& path = *run.solution.path_of(r);
    std::vector<EdgeId> base_edges;
    for (const EdgeId e : path) {
      const EdgeId b = snapshot.base_edge(e);
      auto& res = residual_[static_cast<std::size_t>(b)];
      res = std::max(0.0, res - requests[ri].demand);
      base_edges.push_back(b);
    }
    ledger_.admit(timed.sequence, requests[ri].demand, std::move(base_edges),
                  close_time,
                  timed.duration < kInf ? close_time + timed.duration : kInf);
    ++report.admitted;
    report.admitted_value += requests[ri].value;
    report.revenue += payments[ri];
    if (config_.record_allocations) {
      report.allocations.push_back({timed.sequence, batch_index[ri],
                                    requests[ri].value, payments[ri],
                                    static_cast<int>(path.size())});
    }
  }
  finish();
  return report;
}

}  // namespace tufp::sim
