// LeaseLedger — finite-duration capacity bookkeeping for the admission
// engine (DESIGN.md §10).
//
// Every admission becomes a *lease*: the demand it holds on each edge of
// its admitted path, the virtual time it was granted, and the time it
// expires (kInf = permanent, which reproduces the engine's historical
// hold-forever semantics exactly: a permanent lease is recorded for
// occupancy accounting but never scheduled, never drained, and costs
// nothing on the reclaim path). Finite leases are scheduled on a
// hierarchical TimerWheel; reclaim_until() drains everything expired by
// the epoch's close time in deterministic (expiry time, lease id) order
// and returns the capacity to the caller's residual vector.
//
// Exact capacity return. Residuals are maintained incrementally by the
// engine (subtract on admit), and floating-point addition is not
// associative, so naively adding demands back on expiry would leave the
// residual within an ulp of — but not equal to — the empty-network
// baseline after full churn. The ledger therefore tracks, per edge, the
// number of active leases: when an expiry drops an edge's count to zero
// the residual is *snapped* to the base capacity bit-for-bit (and clamped
// to it otherwise). Hence "all finite leases expired" implies "residual
// == base capacity exactly", the property the temporal-no-leak oracle
// asserts with == and not a tolerance.
//
// Single-threaded like the wheel: admissions and drains happen on the
// epoch loop's thread, so ledger state is a pure function of the
// admission history and byte-identical across solver thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/temporal/timer_wheel.hpp"

namespace tufp::temporal {

using LeaseId = std::int64_t;

struct Lease {
  LeaseId id = -1;
  std::int64_t sequence = -1;   // stream sequence of the admitted request
  double demand = 0.0;          // per-edge capacity held
  double admitted_at = 0.0;     // epoch close time of the admission
  double expires_at = 0.0;      // kInf = permanent
  std::vector<EdgeId> edges;    // base edge ids of the admitted path
};

struct LeaseLedgerConfig {
  // TimerWheel quantization. Pure performance knob: expiry comparisons
  // are exact regardless (timer_wheel.hpp), this only sets how many
  // (cheap, empty) slot scans a reclaim pays per virtual second.
  double tick_seconds = 0.05;
};

class LeaseLedger {
 public:
  LeaseLedger(int num_edges, LeaseLedgerConfig config = {});

  // Records an admission. `expires_at` is an absolute virtual time >= now
  // (kInf for a permanent lease). Returns the lease id — a monotonically
  // increasing admission counter, which is what makes the drain order's
  // id tie-break deterministic.
  LeaseId admit(std::int64_t sequence, double demand,
                std::vector<EdgeId> edges, double now, double expires_at);

  // Drains every lease with expires_at <= now in (expires_at, id) order,
  // returning each lease's demand to `residual` (indexed by base edge,
  // clamped to `capacities` and snapped exactly when an edge's last
  // active lease leaves). Returns the number of leases reclaimed.
  // `expired`, when non-null, receives the drained leases in drain order
  // (consumed by tests and the churn metrics).
  int reclaim_until(double now, std::span<const double> capacities,
                    std::span<double> residual,
                    std::vector<Lease>* expired = nullptr);

  // Active = admitted and not yet reclaimed (permanent leases included).
  std::int64_t active_count() const {
    return static_cast<std::int64_t>(leases_.size());
  }
  // Σ over active leases of demand * |edges| — the capacity currently
  // promised out, the numerator of the engine's occupancy gauge.
  double leased_capacity() const { return leased_capacity_; }
  // Σ demand of active leases crossing edge e / their count.
  double leased_demand(EdgeId e) const {
    return leased_demand_[static_cast<std::size_t>(e)];
  }
  int active_on_edge(EdgeId e) const {
    return active_on_edge_[static_cast<std::size_t>(e)];
  }

  std::int64_t finite_admitted() const { return finite_admitted_; }
  std::int64_t expired_total() const { return expired_total_; }
  double now() const { return wheel_.now(); }
  int num_edges() const { return static_cast<int>(leased_demand_.size()); }

  // Forgets everything (engine reset): counters, gauges, wheel and clock.
  void clear();

 private:
  LeaseLedgerConfig config_;
  TimerWheel wheel_;
  std::unordered_map<LeaseId, Lease> leases_;  // active, by id
  std::vector<double> leased_demand_;          // per base edge
  std::vector<int> active_on_edge_;            // per base edge
  double leased_capacity_ = 0.0;
  LeaseId next_id_ = 0;
  std::int64_t finite_admitted_ = 0;
  std::int64_t expired_total_ = 0;
  std::vector<TimerWheel::Event> due_;         // reclaim scratch
};

}  // namespace tufp::temporal
