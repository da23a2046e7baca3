#include "tufp/sim/oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/sim/reference_engine.hpp"
#include "tufp/ufp/dual_certificate.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::sim {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void add(std::vector<Violation>* out, const char* oracle, std::string detail) {
  out->push_back({oracle, std::move(detail)});
}

bool same_paths(const Path* a, const Path* b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  return a == nullptr || *a == *b;
}

// Exact allocation equality: same selected set, same path per winner.
// Returns a witness string for the first difference, empty when equal.
std::string selection_diff(const UfpSolution& a, const UfpSolution& b) {
  if (a.num_requests() != b.num_requests()) {
    return "request-count mismatch " + std::to_string(a.num_requests()) +
           " vs " + std::to_string(b.num_requests());
  }
  for (int r = 0; r < a.num_requests(); ++r) {
    if (a.is_selected(r) != b.is_selected(r)) {
      return "request " + std::to_string(r) + " selected=" +
             (a.is_selected(r) ? "yes" : "no") + " vs " +
             (b.is_selected(r) ? "yes" : "no");
    }
    if (!same_paths(a.path_of(r), b.path_of(r))) {
      return "request " + std::to_string(r) + " routed along different paths";
    }
  }
  return {};
}

std::vector<double> leased_view(const temporal::LeaseLedger& ledger) {
  std::vector<double> out(static_cast<std::size_t>(ledger.num_edges()));
  for (EdgeId e = 0; e < ledger.num_edges(); ++e) {
    out[static_cast<std::size_t>(e)] = ledger.leased_demand(e);
  }
  return out;
}

template <class Engine>
void replay_into(const SimWorld& world, bool churn, Engine& engine,
                 RunDigest* digest) {
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  double last_close = 0.0;
  double max_finite_duration = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    t.sequence = static_cast<std::int64_t>(i);
    if (churn && i < world.durations.size()) t.duration = world.durations[i];
    if (t.duration < kInf) {
      max_finite_duration = std::max(max_finite_duration, t.duration);
    }
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    EpochDigest epoch;
    epoch.report = engine.run_epoch(batch);
    epoch.report.solve_seconds = 0.0;
    epoch.report.reclaim_seconds = 0.0;
    last_close = std::max(last_close, epoch.report.close_time);
    epoch.residual.assign(engine.residual().begin(), engine.residual().end());
    epoch.leased = leased_view(*engine.lease_ledger());
    digest->epochs.push_back(std::move(epoch));
    batch.clear();
  }
  // Admissions happen at epoch close <= last_close, so last_close + the
  // longest finite duration bounds every expiry.
  digest->reclaimed_at_horizon =
      engine.reclaim_expired(last_close + max_finite_duration + 1.0);
  const temporal::LeaseLedger& ledger = *engine.lease_ledger();
  digest->final_residual.assign(engine.residual().begin(),
                                engine.residual().end());
  digest->final_leased = leased_view(ledger);
  for (EdgeId e = 0; e < ledger.num_edges(); ++e) {
    digest->final_active_on_edge.push_back(ledger.active_on_edge(e));
  }
  digest->final_active = ledger.active_count();
}

// ------------------------------------------------------------ digest diff

std::string show(double v) { return fmt(v); }
std::string show(std::int64_t v) { return std::to_string(v); }
std::string show(int v) { return std::to_string(v); }
std::string show(const obs::DecisionRecord& r) { return r.to_json(); }
std::string show(const Path& p) {
  std::string out = "[";
  for (const EdgeId e : p) {
    if (out.size() > 1) out += ',';
    out += std::to_string(e);
  }
  return out + "]";
}

// Accumulates the first differing field; later comparisons are no-ops.
// A field's full name is the current prefix plus its own, built only for
// the difference reported.
class FirstDiff {
 public:
  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }
  template <class T>
  void field(const char* name, const T& want, const T& got) {
    if (found() || want == got) return;
    diff_ = prefix_ + name + ": " + show(want) + " vs " + show(got);
  }
  template <class T, class Eq = std::equal_to<>>
  void seq(const char* name, const std::vector<T>& want,
           const std::vector<T>& got, Eq eq = {}) {
    if (found()) return;
    if (want.size() != got.size()) {
      diff_ = prefix_ + name + " length: " + std::to_string(want.size()) +
              " vs " + std::to_string(got.size());
      return;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      if (eq(want[k], got[k])) continue;
      diff_ = prefix_ + name + "[" + std::to_string(k) + "]: " +
              show(want[k]) + " vs " + show(got[k]);
      return;
    }
  }
  bool found() const { return !diff_.empty(); }
  std::string take() { return std::move(diff_); }

 private:
  std::string prefix_;
  std::string diff_;
};

// Bit-pattern equality: a NaN bid matches itself and -0 differs from 0,
// exactly as their rendered forms do.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Every field DecisionRecord::to_json() renders.
bool same_record(const obs::DecisionRecord& a, const obs::DecisionRecord& b) {
  return a.sequence == b.sequence && a.epoch == b.epoch &&
         a.outcome == b.outcome && same_bits(a.close_time, b.close_time) &&
         same_bits(a.value, b.value) && same_bits(a.demand, b.demand) &&
         a.path == b.path && same_bits(a.payment, b.payment) &&
         a.warm_tree == b.warm_tree && same_bits(a.density, b.density) &&
         a.bottleneck_edge == b.bottleneck_edge &&
         same_bits(a.admitted_at, b.admitted_at) &&
         same_bits(a.expires_at, b.expires_at);
}

class RecordCapture final : public obs::DecisionSink {
 public:
  void record(const obs::DecisionRecord& record) override {
    records.push_back(record);
  }
  std::vector<obs::DecisionRecord> records;
};

}  // namespace

RunDigest replay_world(const SimWorld& world, bool churn,
                       EpochEngine& engine) {
  RunDigest digest;
  replay_into(world, churn, engine, &digest);
  digest.trees_kept_on_reclaim =
      engine.metrics().counters().trees_kept_on_reclaim;
  digest.trees_dropped_on_reclaim =
      engine.metrics().counters().trees_dropped_on_reclaim;
  return digest;
}

RunDigest replay_world(const SimWorld& world, const ReplayOptions& options) {
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.payments = options.payments;
  config.record_allocations = true;
  config.solver = world.solver;
  config.solver.capacity_guard = true;  // engine precondition
  config.solver.num_threads = options.threads;
  if (options.kernel) config.solver.sp_kernel = *options.kernel;

  RunDigest digest;
  const auto& graph = world.instance.shared_graph();
  if (options.reference) {
    ReferenceEngine engine(graph, config);
    replay_into(world, options.churn, engine, &digest);
    digest.production = false;
  } else {
    RecordCapture trace;
    EpochEngine engine(graph, config);
    if (options.decisions) engine.set_decision_trace(&trace);
    digest = replay_world(world, options.churn, engine);
    digest.decisions = std::move(trace.records);
  }
  const char* kernel = "world";
  if (options.kernel == SpKernel::kHeap) kernel = "heap";
  if (options.kernel == SpKernel::kBucket) kernel = "bucket";
  digest.leg = std::string(options.reference ? "reference " : "production ") +
               kernel + " t" + std::to_string(options.threads) +
               (options.churn ? " churn" : " plain");
  return digest;
}

std::string digest_diff(const RunDigest& want, const RunDigest& got) {
  FirstDiff d;
  d.seq("one_shot", want.one_shot, got.one_shot);
  d.field("one_shot.iterations", want.one_shot_iterations,
          got.one_shot_iterations);
  d.field("one_shot.final_dual_sum", want.one_shot_final_dual_sum,
          got.one_shot_final_dual_sum);
  d.field("one_shot.dual_upper_bound", want.one_shot_dual_upper_bound,
          got.one_shot_dual_upper_bound);
  d.field("epochs", static_cast<std::int64_t>(want.epochs.size()),
          static_cast<std::int64_t>(got.epochs.size()));
  const bool outcomes = want.production && got.production;
  for (std::size_t i = 0; i < want.epochs.size() && !d.found(); ++i) {
    const AdmissionReport& x = want.epochs[i].report;
    const AdmissionReport& y = got.epochs[i].report;
    d.set_prefix("epoch " + std::to_string(x.epoch) + " ");
#define TUFP_DIGEST_FIELD(f) d.field(#f, x.f, y.f)
    TUFP_DIGEST_FIELD(epoch);
    TUFP_DIGEST_FIELD(batch_size);
    TUFP_DIGEST_FIELD(admitted);
    TUFP_DIGEST_FIELD(invalid_rejected);
    if (outcomes) {
      TUFP_DIGEST_FIELD(no_path);
      TUFP_DIGEST_FIELD(capacity_blocked);
      TUFP_DIGEST_FIELD(lost_auction);
      TUFP_DIGEST_FIELD(shard_conflict);
    }
    TUFP_DIGEST_FIELD(close_time);
    TUFP_DIGEST_FIELD(offered_value);
    TUFP_DIGEST_FIELD(admitted_value);
    TUFP_DIGEST_FIELD(revenue);
    TUFP_DIGEST_FIELD(dual_upper_bound);
    TUFP_DIGEST_FIELD(active_edges);
    TUFP_DIGEST_FIELD(saturated_edges);
    TUFP_DIGEST_FIELD(min_residual);
    TUFP_DIGEST_FIELD(solver_iterations);
    TUFP_DIGEST_FIELD(sp_computations);
    TUFP_DIGEST_FIELD(sp_tree_runs);
    TUFP_DIGEST_FIELD(expired_leases);
    TUFP_DIGEST_FIELD(active_leases);
    TUFP_DIGEST_FIELD(occupancy);
    TUFP_DIGEST_FIELD(queue_depth);
    TUFP_DIGEST_FIELD(max_admission_delay);
#undef TUFP_DIGEST_FIELD
    d.field("allocations length",
            static_cast<std::int64_t>(x.allocations.size()),
            static_cast<std::int64_t>(y.allocations.size()));
    for (std::size_t j = 0; j < x.allocations.size() && !d.found(); ++j) {
      const AdmissionRecord& a = x.allocations[j];
      const AdmissionRecord& b = y.allocations[j];
      if (a == b) continue;
      d.set_prefix("epoch " + std::to_string(x.epoch) + " allocations[" +
                   std::to_string(j) + "].");
      d.field("sequence", a.sequence, b.sequence);
      d.field("request", a.request, b.request);
      d.field("bid", a.bid, b.bid);
      d.field("payment", a.payment, b.payment);
      d.field("path_edges", a.path_edges, b.path_edges);
    }
    d.seq("residual", want.epochs[i].residual, got.epochs[i].residual);
    d.seq("leased", want.epochs[i].leased, got.epochs[i].leased);
  }
  d.set_prefix("");
  d.field("horizon reclaimed", want.reclaimed_at_horizon,
          got.reclaimed_at_horizon);
  d.seq("final residual", want.final_residual, got.final_residual);
  d.seq("final leased", want.final_leased, got.final_leased);
  d.seq("final active_on_edge", want.final_active_on_edge,
        got.final_active_on_edge);
  d.field("final active", want.final_active, got.final_active);
  if (outcomes) {
    d.seq("decisions", want.decisions, got.decisions, same_record);
    d.field("trees_kept_on_reclaim", want.trees_kept_on_reclaim,
            got.trees_kept_on_reclaim);
    d.field("trees_dropped_on_reclaim", want.trees_dropped_on_reclaim,
            got.trees_dropped_on_reclaim);
  }
  return d.take();
}

namespace {

// One production-engine replay at the world's own solver settings.
RunDigest replay_priced(const SimWorld& world, PaymentPolicy payments,
                        bool churn = false) {
  ReplayOptions options;
  options.payments = payments;
  options.churn = churn;
  return replay_world(world, options);
}

}  // namespace

// Lazy shared computations. Several oracles read the unperturbed base
// solve or the same engine replay; memoizing them here means a full sweep
// pays for each at most once, and a restricted suite (the shrinker probes
// a single oracle hundreds of times) pays only for what that oracle
// reads.
struct OracleContext {
  const SimWorld& world;
  const OracleOptions& options;

  OracleContext(const SimWorld& w, const OracleOptions& o)
      : world(w), options(o) {}

  const BoundedUfpResult& base() {
    if (!base_) base_.emplace(bounded_ufp(world.instance, world.solver));
    return *base_;
  }
  // Plain replays (every lease permanent) under kNone / kDualPrice, and
  // the kNone churn replay.
  const RunDigest& engine_none() {
    return memo(none_, PaymentPolicy::kNone, false);
  }
  const RunDigest& engine_dual() {
    return memo(dual_, PaymentPolicy::kDualPrice, false);
  }
  const RunDigest& temporal() {
    return memo(temporal_, PaymentPolicy::kNone, true);
  }

 private:
  const RunDigest& memo(std::optional<RunDigest>& slot, PaymentPolicy payments,
                        bool churn) {
    if (!slot) slot.emplace(replay_priced(world, payments, churn));
    return *slot;
  }
  std::optional<BoundedUfpResult> base_;
  std::optional<RunDigest> none_;
  std::optional<RunDigest> dual_;
  std::optional<RunDigest> temporal_;
};

namespace {

// --------------------------------------------------------------- oracles

std::vector<Violation> oracle_feasible(OracleContext& ctx) {
  std::vector<Violation> out;
  const FeasibilityReport report =
      ctx.base().solution.check_feasibility(ctx.world.instance);
  if (!report.feasible) add(&out, "feasible", report.message);
  return out;
}

std::vector<Violation> oracle_dual_bound(OracleContext& ctx) {
  std::vector<Violation> out;
  const double value = ctx.base().solution.total_value(ctx.world.instance);
  if (!approx_le(value, ctx.base().dual_upper_bound, 1e-9, 1e-9)) {
    add(&out, "dual-bound",
        "admitted value " + fmt(value) + " exceeds dual upper bound " +
            fmt(ctx.base().dual_upper_bound));
  }
  return out;
}

std::vector<Violation> oracle_bid_scaling(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  // Powers of two: the scaled priorities (d/λv)·|p| are exact binary
  // rescalings, so even floating-point ties are preserved and the
  // allocation must be byte-identical.
  for (const double lambda : {0.5, 4.0}) {
    std::vector<Request> scaled = world.instance.requests();
    for (Request& r : scaled) r.value *= lambda;
    const UfpInstance instance(world.instance.shared_graph(),
                               std::move(scaled));
    const BoundedUfpResult run = bounded_ufp(instance, world.solver);
    const std::string diff = selection_diff(base.solution, run.solution);
    if (!diff.empty()) {
      add(&out, "bid-scaling",
          "allocation changed under uniform bid scaling x" + fmt(lambda) +
              ": " + diff);
    }
  }
  return out;
}

std::vector<Violation> oracle_winner_monotone(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  int winner = -1, loser = -1;
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    if (base.solution.is_selected(r) && winner < 0) winner = r;
    if (!base.solution.is_selected(r) && loser < 0) loser = r;
  }
  if (winner >= 0) {
    Request up = world.instance.request(winner);
    up.value *= 2.0;
    const BoundedUfpResult run =
        bounded_ufp(world.instance.with_request(winner, up), world.solver);
    if (!run.solution.is_selected(winner)) {
      add(&out, "winner-monotone",
          "winner " + std::to_string(winner) + " lost after raising its bid");
    }
    Request lighter = world.instance.request(winner);
    lighter.demand *= 0.5;
    const BoundedUfpResult run2 = bounded_ufp(
        world.instance.with_request(winner, lighter), world.solver);
    if (!run2.solution.is_selected(winner)) {
      add(&out, "winner-monotone",
          "winner " + std::to_string(winner) +
              " lost after halving its demand");
    }
  }
  if (loser >= 0) {
    Request down = world.instance.request(loser);
    down.value *= 0.5;
    const BoundedUfpResult run =
        bounded_ufp(world.instance.with_request(loser, down), world.solver);
    if (run.solution.is_selected(loser)) {
      add(&out, "winner-monotone",
          "loser " + std::to_string(loser) + " won after lowering its bid");
    }
  }
  return out;
}

std::vector<Violation> oracle_loser_removal(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  int loser = -1;
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    if (!base.solution.is_selected(r)) {
      loser = r;
      break;
    }
  }
  if (loser < 0 || world.instance.num_requests() < 2) return out;

  std::vector<Request> reduced = world.instance.requests();
  reduced.erase(reduced.begin() + loser);
  const UfpInstance instance(world.instance.shared_graph(), std::move(reduced));
  const BoundedUfpResult run = bounded_ufp(instance, world.solver);
  // Identity map: request r of the reduced instance is request r (+1 past
  // the removed slot) of the original.
  for (int r = 0; r < instance.num_requests(); ++r) {
    const int orig = r < loser ? r : r + 1;
    if (run.solution.is_selected(r) != base.solution.is_selected(orig) ||
        !same_paths(run.solution.path_of(r), base.solution.path_of(orig))) {
      add(&out, "loser-removal",
          "removing losing request " + std::to_string(loser) +
              " changed the outcome of request " + std::to_string(orig));
      break;
    }
  }
  return out;
}

std::vector<Violation> oracle_capacity_monotone(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  const double value = base.solution.total_value(world.instance);

  const Graph& g = world.instance.graph();
  Graph scaled =
      g.is_directed() ? Graph::directed(g.num_vertices())
                      : Graph::undirected(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    scaled.add_edge(u, v, g.capacity(e) * 2.0);
  }
  scaled.finalize();
  const UfpInstance bigger(std::move(scaled), world.instance.requests());

  // The old allocation fits a fortiori in the wider network.
  const FeasibilityReport feas = base.solution.check_feasibility(bigger);
  if (!feas.feasible) {
    add(&out, "capacity-monotone",
        "solution infeasible after doubling capacities: " + feas.message);
  }
  // OPT is monotone in capacity, and Claim 3.6 upper-bounds the wider
  // optimum: value(c) <= OPT(c) <= OPT(2c) <= dual_ub(2c). The bound is
  // the shared certified implementation (ufp/dual_certificate.hpp) the
  // evaluation lab also builds on, so the fuzzer and the lab can never
  // disagree on it.
  const double wide_bound = claim36_upper_bound(bigger, world.solver);
  if (!approx_le(value, wide_bound, 1e-9, 1e-9)) {
    add(&out, "capacity-monotone",
        "value " + fmt(value) + " at base capacity exceeds the dual bound " +
            fmt(wide_bound) + " of the doubled network");
  }
  return out;
}

std::vector<Violation> oracle_engine_offline(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const int R = world.instance.num_requests();
  if (R > options.critical_cap) return out;  // bisection cost cap

  // One epoch over the fresh network == the paper's one-shot auction.
  SimWorld single = world;
  single.max_batch = std::max(1, R);
  const RunDigest engine = replay_priced(single, PaymentPolicy::kCritical);

  BoundedUfpConfig cfg = world.solver;
  cfg.capacity_guard = true;
  const UfpMechanismResult offline =
      run_ufp_mechanism(world.instance, make_bounded_ufp_rule(cfg));

  std::vector<double> engine_payment(static_cast<std::size_t>(R), 0.0);
  std::vector<bool> engine_won(static_cast<std::size_t>(R), false);
  for (const EpochDigest& epoch : engine.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const auto i = static_cast<std::size_t>(a.sequence);
      engine_won[i] = true;
      engine_payment[i] = a.payment;
    }
  }
  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (engine_won[i] != offline.allocation.is_selected(r)) {
      add(&out, "engine-offline",
          "request " + std::to_string(r) + " admitted by " +
              (engine_won[i] ? "engine only" : "offline mechanism only"));
      continue;
    }
    if (std::fabs(engine_payment[i] - offline.payments[i]) > 1e-9) {
      add(&out, "engine-offline",
          "request " + std::to_string(r) + " engine payment " +
              fmt(engine_payment[i]) + " != offline critical payment " +
              fmt(offline.payments[i]));
    }
  }
  return out;
}

std::vector<Violation> oracle_payment_policy(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const RunDigest& none = ctx.engine_none();
  const RunDigest& dual = ctx.engine_dual();

  const auto admitted_sequences = [](const RunDigest& run) {
    std::vector<std::int64_t> seq;
    for (const EpochDigest& e : run.epochs) {
      for (const AdmissionRecord& a : e.report.allocations) {
        seq.push_back(a.sequence);
      }
    }
    return seq;
  };
  // IR + no-positive-transfer on the engine's *actual* charged payments
  // (the payments-ir oracle prices through the sim rule; this leg keeps
  // EpochEngine::apply_payments itself under the same invariant).
  const auto check_engine_ir = [&](const RunDigest& run, const char* policy) {
    for (const EpochDigest& epoch : run.epochs) {
      const AdmissionReport& e = epoch.report;
      double revenue = 0.0;
      for (const AdmissionRecord& a : e.allocations) {
        revenue += a.payment;
        if (a.payment < -1e-12 || a.payment > a.bid + 1e-9) {
          add(&out, "payment-policy",
              std::string(policy) + " epoch " + std::to_string(e.epoch) +
                  " charged " + fmt(a.payment) + " against bid " +
                  fmt(a.bid));
        }
      }
      if (!approx_eq(revenue, e.revenue, 1e-9, 1e-12)) {
        add(&out, "payment-policy",
            std::string(policy) + " epoch " + std::to_string(e.epoch) +
                " revenue " + fmt(e.revenue) +
                " does not match the sum of its payments " + fmt(revenue));
      }
    }
  };

  const std::vector<std::int64_t> base_seq = admitted_sequences(none);
  if (admitted_sequences(dual) != base_seq) {
    add(&out, "payment-policy",
        "dual-price pricing changed the admitted set vs kNone");
  }
  check_engine_ir(dual, "dual-price");
  for (const EpochDigest& e : none.epochs) {
    if (e.report.revenue != 0.0) {
      add(&out, "payment-policy",
          "kNone epoch " + std::to_string(e.report.epoch) +
              " charged revenue " + fmt(e.report.revenue));
    }
  }
  if (world.instance.num_requests() <= options.critical_cap) {
    const RunDigest critical = replay_priced(world, PaymentPolicy::kCritical);
    if (admitted_sequences(critical) != base_seq) {
      add(&out, "payment-policy",
          "critical pricing changed the admitted set vs kNone");
    }
    check_engine_ir(critical, "critical");
  }
  return out;
}

std::vector<Violation> oracle_residual_feasible(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const RunDigest& run = ctx.engine_none();
  std::vector<Violation> out;
  const Graph& g = world.instance.graph();
  for (const EpochDigest& epoch : run.epochs) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double res = epoch.residual[static_cast<std::size_t>(e)];
      if (res < -1e-9 || res > g.capacity(e) + 1e-9) {
        add(&out, "residual-feasible",
            "epoch " + std::to_string(epoch.report.epoch) + " edge " +
                std::to_string(e) + " residual " + fmt(res) +
                " outside [0, " + fmt(g.capacity(e)) + "]");
      }
    }
  }

  // Global conservation: total capacity consumed across the base network
  // equals the sum over winners of demand x path length.
  double consumed = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    consumed += g.capacity(e) - run.final_residual[static_cast<std::size_t>(e)];
  }
  double expected = 0.0;
  for (const EpochDigest& epoch : run.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const Request& req =
          world.instance.request(static_cast<int>(a.sequence));
      expected += req.demand * a.path_edges;
    }
  }
  if (!approx_eq(consumed, expected, 1e-6, 1e-6)) {
    add(&out, "residual-feasible",
        "consumed capacity " + fmt(consumed) +
            " does not match admitted load " + fmt(expected));
  }
  return out;
}

std::vector<Violation> oracle_payments_ir(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const SimPricing pricing = sim_price(world.instance, world.solver, options);
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double pay = pricing.payments[i];
    const double bid = world.instance.request(r).value;
    if (!pricing.allocation.is_selected(r)) {
      if (pay != 0.0) {
        add(&out, "payments-ir",
            "loser " + std::to_string(r) + " charged " + fmt(pay));
      }
      continue;
    }
    if (pay < -1e-12) {
      add(&out, "payments-ir",
          "winner " + std::to_string(r) + " paid negative amount " + fmt(pay));
    }
    if (pay > bid + 1e-9) {
      add(&out, "payments-ir",
          "winner " + std::to_string(r) + " charged " + fmt(pay) +
              " above its bid " + fmt(bid));
    }
  }
  return out;
}

// ------------------------------------------------------ temporal oracles

std::vector<Violation> oracle_temporal_conserve(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  std::vector<Violation> out;
  const RunDigest& run = ctx.temporal();

  // Leg 1 — ledger vs residual, per epoch, per edge: what the ledger says
  // is promised out plus what the engine says is free must reconstruct
  // the base capacity. (Tolerance, not ==: admission clamps at zero may
  // discard up to the guard slack per admission.)
  for (const EpochDigest& epoch : run.epochs) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const double residual = epoch.residual[ei];
      const double leased = epoch.leased[ei];
      if (residual < -1e-9 || residual > g.capacity(e) + 1e-9 ||
          !approx_eq(residual + leased, g.capacity(e), 1e-9, 1e-6)) {
        add(&out, "temporal-conserve",
            "epoch " + std::to_string(epoch.report.epoch) + " edge " +
                std::to_string(e) + " residual " + fmt(residual) +
                " + leased " + fmt(leased) + " != capacity " +
                fmt(g.capacity(e)));
      }
    }
  }

  // Leg 2 — sim-side lease replay: rebuild the lease book from nothing
  // but the admission records (demand, path length, duration) and demand
  // the engine's total consumed capacity match it every epoch. This is
  // the leg kLeakExpiredCapacity corrupts (the replay "loses" 5% of each
  // expired lease), proving the conservation check bites.
  const double reclaim_factor =
      ctx.options.fault == FaultInjection::kLeakExpiredCapacity ? 0.95 : 1.0;
  struct BookedLease {
    double expires = 0.0;
    double units = 0.0;  // demand * path edges
  };
  std::vector<BookedLease> book;
  double booked = 0.0;
  for (const EpochDigest& epoch : run.epochs) {
    const double close = epoch.report.close_time;
    // Expiries drain before the auction, mirroring the engine.
    for (BookedLease& lease : book) {
      if (lease.units > 0.0 && lease.expires <= close) {
        booked -= lease.units * reclaim_factor;
        lease.units = 0.0;
      }
    }
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const auto seq = static_cast<std::size_t>(a.sequence);
      const Request& req = world.instance.request(static_cast<int>(seq));
      const double duration =
          seq < world.durations.size() ? world.durations[seq] : kInf;
      const double units = req.demand * a.path_edges;
      booked += units;
      if (duration < kInf) book.push_back({close + duration, units});
    }
    double consumed = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      consumed += g.capacity(e) - epoch.residual[static_cast<std::size_t>(e)];
    }
    if (!approx_eq(consumed, booked, 1e-6, 1e-6)) {
      add(&out, "temporal-conserve",
          "epoch " + std::to_string(epoch.report.epoch) +
              " consumed capacity " + fmt(consumed) +
              " does not match the replayed lease book " + fmt(booked));
      break;  // the books only diverge further; one witness is enough
    }
  }
  return out;
}

std::vector<Violation> oracle_temporal_no_leak(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  std::vector<Violation> out;
  const RunDigest& run = ctx.temporal();

  // Every finite lease has expired by the drained horizon: an edge with
  // no remaining (permanent) lease must hold its base capacity EXACTLY —
  // the ledger's snap rule makes this an ==, not a tolerance.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto ei = static_cast<std::size_t>(e);
    if (run.final_active_on_edge[ei] == 0) {
      if (run.final_residual[ei] != g.capacity(e)) {
        add(&out, "temporal-no-leak",
            "edge " + std::to_string(e) + " residual " +
                fmt(run.final_residual[ei]) + " != base capacity " +
                fmt(g.capacity(e)) + " after every lease expired");
      }
    } else if (!approx_eq(run.final_residual[ei] + run.final_leased[ei],
                          g.capacity(e), 1e-9, 1e-6)) {
      add(&out, "temporal-no-leak",
          "edge " + std::to_string(e) + " residual " +
              fmt(run.final_residual[ei]) + " + permanent leases " +
              fmt(run.final_leased[ei]) + " != capacity " +
              fmt(g.capacity(e)));
    }
  }

  // Only permanent admissions may survive the horizon.
  std::int64_t permanent = 0;
  for (const EpochDigest& epoch : run.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const auto seq = static_cast<std::size_t>(a.sequence);
      const double duration =
          seq < world.durations.size() ? world.durations[seq] : kInf;
      if (duration >= kInf) ++permanent;
    }
  }
  if (run.final_active != permanent) {
    add(&out, "temporal-no-leak",
        "ledger holds " + std::to_string(run.final_active) +
            " leases past the horizon, expected the " +
            std::to_string(permanent) + " permanent admissions");
  }
  return out;
}

// The one differential over configurations: the production engine and
// the naive reference engine, each under heap and bucket kernels at 1
// and 4 threads, on the plain and the churn replay. Every leg's digest
// must equal the production heap-t1 digest of its replay — admissions,
// payments, residual and ledger views, solver counters, the horizon
// drain and the one-shot solve's dual state; production legs also the
// outcome split, the decision record stream and the warm-tree reclaim
// counters. On top, the base leg's decision stream must satisfy the
// terminal-decision contract: exactly one non-expiry record per offered
// request.
std::vector<Violation> oracle_config_diff(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  constexpr SpKernel kKernels[] = {SpKernel::kHeap, SpKernel::kBucket};
  constexpr int kThreads[] = {1, 4};
  // One-shot solve per (kernel, threads) setting, shared by its legs.
  std::vector<BoundedUfpResult> one_shots;
  for (const SpKernel kernel : kKernels) {
    for (const int threads : kThreads) {
      BoundedUfpConfig cfg = world.solver;
      cfg.sp_kernel = kernel;
      cfg.num_threads = threads;
      one_shots.push_back(bounded_ufp(world.instance, cfg));
    }
  }
  for (const bool churn : {false, true}) {
    std::optional<RunDigest> base;
    for (const bool reference : {false, true}) {
      std::size_t setting = 0;
      for (const SpKernel kernel : kKernels) {
        for (const int threads : kThreads) {
          ReplayOptions options;
          options.threads = threads;
          options.kernel = kernel;
          options.churn = churn;
          options.reference = reference;
          options.decisions = true;
          RunDigest digest = replay_world(world, options);
          const BoundedUfpResult& solve = one_shots[setting++];
          for (int r = 0; r < world.instance.num_requests(); ++r) {
            const Path* path = solve.solution.path_of(r);
            digest.one_shot.push_back(path != nullptr ? *path : Path{});
          }
          digest.one_shot_iterations = solve.iterations;
          digest.one_shot_final_dual_sum = solve.final_dual_sum;
          digest.one_shot_dual_upper_bound = solve.dual_upper_bound;
          if (base) {
            const std::string diff = digest_diff(*base, digest);
            if (!diff.empty()) {
              add(&out, "config-diff",
                  base->leg + " vs " + digest.leg + ": " + diff);
            }
            continue;
          }
          const auto decisions = std::count_if(
              digest.decisions.begin(), digest.decisions.end(),
              [](const obs::DecisionRecord& r) {
                return r.outcome != obs::DecisionOutcome::kLeaseExpired;
              });
          const auto offered = world.instance.requests().size();
          if (static_cast<std::size_t>(decisions) != offered) {
            add(&out, "config-diff",
                digest.leg + ": " + std::to_string(decisions) +
                    " terminal decisions for " + std::to_string(offered) +
                    " offered requests");
          }
          base = std::move(digest);
        }
      }
    }
  }
  return out;
}

constexpr OracleEntry kCatalogue[] = {
    {"feasible", "solver output exact and capacity-feasible", oracle_feasible},
    {"dual-bound", "admitted value within the Claim 3.6 dual bound",
     oracle_dual_bound},
    {"bid-scaling", "allocation invariant under uniform bid scaling",
     oracle_bid_scaling},
    {"winner-monotone", "better declarations keep winning (Lemma 3.4)",
     oracle_winner_monotone},
    {"loser-removal", "removing a loser changes nothing",
     oracle_loser_removal},
    {"capacity-monotone", "value bounded by the wider network's dual bound",
     oracle_capacity_monotone},
    {"payments-ir", "payments individually rational, no positive transfers",
     oracle_payments_ir},
    {"residual-feasible", "engine residual bounded, load conserved",
     oracle_residual_feasible},
    {"payment-policy", "pricing policy never steers allocation",
     oracle_payment_policy},
    {"engine-offline", "single engine epoch equals the one-shot mechanism",
     oracle_engine_offline},
    {"temporal-conserve",
     "active lease demand + residual reconstructs capacity every epoch",
     oracle_temporal_conserve},
    {"temporal-no-leak",
     "residual returns to the empty-network baseline after expiry",
     oracle_temporal_no_leak},
    {"config-diff",
     "engine digest identical across kernels, threads and the reference "
     "engine",
     oracle_config_diff},
};

}  // namespace

const char* fault_name(FaultInjection fault) {
  switch (fault) {
    case FaultInjection::kNone: return "none";
    case FaultInjection::kOverchargeWinners: return "overcharge-winners";
    case FaultInjection::kChargeLosers: return "charge-losers";
    case FaultInjection::kLeakExpiredCapacity:
      return "leak-expired-capacity";
  }
  return "unknown";
}

FaultInjection fault_from_name(const std::string& name) {
  for (FaultInjection f :
       {FaultInjection::kNone, FaultInjection::kOverchargeWinners,
        FaultInjection::kChargeLosers,
        FaultInjection::kLeakExpiredCapacity}) {
    if (name == fault_name(f)) return f;
  }
  throw std::invalid_argument("unknown fault injection: " + name);
}

std::span<const OracleEntry> oracle_catalogue() { return kCatalogue; }

std::vector<Violation> run_oracle_suite(const SimWorld& world,
                                        const OracleOptions& options,
                                        std::span<const std::string> only) {
  for (const std::string& name : only) {
    const auto known = std::any_of(
        std::begin(kCatalogue), std::end(kCatalogue),
        [&](const OracleEntry& e) { return name == e.name; });
    if (!known) throw std::invalid_argument("unknown oracle: " + name);
  }
  OracleContext ctx(world, options);
  std::vector<Violation> out;
  for (const OracleEntry& entry : kCatalogue) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), entry.name) == only.end()) {
      continue;
    }
    std::vector<Violation> found = entry.fn(ctx);
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return out;
}

SimWorld wrap_instance(UfpInstance instance) {
  BoundedUfpConfig solver;
  solver.capacity_guard = true;
  solver.run_to_saturation = true;
  const int R = instance.num_requests();
  return wrap_instance(std::move(instance), solver, std::max(2, R / 3));
}

SimWorld wrap_instance(UfpInstance instance, const BoundedUfpConfig& solver,
                       int max_batch) {
  const int R = instance.num_requests();
  SimWorld world{WorldSpec{WorldFamily::kGrid, 0},
                 std::move(instance),
                 std::vector<double>(static_cast<std::size_t>(R), 0.0),
                 {},
                 DurationProfile::kInfinite,
                 std::max(1, max_batch),
                 solver};
  return world;
}

SimPricing sim_price(const UfpInstance& instance,
                     const BoundedUfpConfig& solver,
                     const OracleOptions& options) {
  BoundedUfpConfig cfg = solver;
  cfg.record_trace = true;
  const BoundedUfpResult run = bounded_ufp(instance, cfg);

  SimPricing pricing{run.solution,
                     std::vector<double>(
                         static_cast<std::size_t>(instance.num_requests()),
                         0.0)};
  if (instance.num_requests() <= options.critical_cap) {
    BoundedUfpConfig probe = cfg;
    probe.num_threads = 1;
    probe.record_trace = false;
    const UfpRule rule = make_bounded_ufp_rule(probe);
    for (int r = 0; r < instance.num_requests(); ++r) {
      if (!run.solution.is_selected(r)) continue;
      const double critical = ufp_critical_value(instance, rule, r);
      pricing.payments[static_cast<std::size_t>(r)] =
          std::min(critical, instance.request(r).value);
    }
  } else {
    for (const IterationRecord& it : run.trace) {
      const double bid = instance.request(it.request).value;
      pricing.payments[static_cast<std::size_t>(it.request)] =
          bid * std::min(1.0, it.alpha);
    }
  }

  // Deliberate breakage for harness-catches-bugs demonstrations. Never on
  // by default; seeded explicitly from the fuzz config.
  switch (options.fault) {
    case FaultInjection::kNone:
    case FaultInjection::kLeakExpiredCapacity:  // temporal-side fault:
      break;  // payments untouched (see oracle_temporal_conserve)
    case FaultInjection::kOverchargeWinners:
      for (int r = 0; r < instance.num_requests(); ++r) {
        if (run.solution.is_selected(r)) {
          pricing.payments[static_cast<std::size_t>(r)] =
              instance.request(r).value * 1.05;
        }
      }
      break;
    case FaultInjection::kChargeLosers:
      for (int r = 0; r < instance.num_requests(); ++r) {
        if (!run.solution.is_selected(r)) {
          pricing.payments[static_cast<std::size_t>(r)] = 0.01;
        }
      }
      break;
  }
  return pricing;
}

}  // namespace tufp::sim
