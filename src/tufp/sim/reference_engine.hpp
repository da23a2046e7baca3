// ReferenceEngine — the deliberately naive epoch engine the production
// EpochEngine is diffed against (config-diff, sim/oracles.hpp) and timed
// against (bench_engine_throughput's *-snapshot rows).
//
// Each epoch drains expired leases into a plain residual vector,
// compiles a fresh GraphSnapshot of it, solves a fresh UfpInstance with
// bounded_ufp and commits winners through snapshot->base edge ids. No
// persistent store, stamps, workspace or cache survives an epoch; leases
// live in the production engine's temporal::LeaseLedger, so no lease
// logic is duplicated. Every AdmissionReport field is filled as
// EpochEngine fills it except the per-outcome rejection split, which
// stays zero. Payments: kNone and kDualPrice only.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/temporal/lease_ledger.hpp"

namespace tufp::sim {

class ReferenceEngine {
 public:
  // Reads the floor, payments, solver, lease tick and record_allocations
  // of `config`; callers batch their own requests.
  ReferenceEngine(std::shared_ptr<const Graph> base_graph,
                  EpochEngineConfig config);

  // EpochEngine::run_epoch(batch): closes at the batch's last arrival.
  AdmissionReport run_epoch(const std::vector<TimedRequest>& batch);

  // Drains every lease expired by `now` (clamped to the ledger clock).
  int reclaim_expired(double now);

  std::span<const double> residual() const { return residual_; }
  const temporal::LeaseLedger* lease_ledger() const { return &ledger_; }

 private:
  std::shared_ptr<const Graph> base_;
  EpochEngineConfig config_;
  std::vector<double> residual_;  // per base EdgeId
  temporal::LeaseLedger ledger_;
  double total_capacity_ = 0.0;
  int epoch_ = 0;
};

}  // namespace tufp::sim
