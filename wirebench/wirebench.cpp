// wirebench — the compiled half of the tufp_serve wire benchmark (run.py).
//
//   wirebench gen     client-side request generation (the `workload`
//                     layer): renders a seeded Poisson session with
//                     exponential leases as tufp_serve `req` lines on a
//                     fixed *virtual* timeline, ending in `quit`.
//   wirebench replay  in-process replay of a generated session through the
//                     same serve loop tufp_serve runs on stdin (bounded
//                     queue, occupancy trigger, EpochEngine::run_epoch,
//                     EpochTelemetry), with tufp_serve's engine config. The
//                     det channel goes to --det-out and must match the
//                     daemon's stdout byte for byte. With --traced it also
//                     installs an obs::SpanProfiler and records its own
//                     per-epoch spans around the public calls, kept in
//                     memory and written to --report at the end.
//
// Usage:
//   wirebench gen --rows R --cols C --capacity X --requests N --rate L
//       --duration-mean M [--source-pool P --source-stride S
//       --target-radius K] --seed S --out FILE
//   wirebench replay --session FILE --rows R --cols C --capacity X
//       --max-batch B --payments none|dual|critical --threads T
//       --det-out FILE --wall-out FILE --report FILE [--traced]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/util/json.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/parallel.hpp"
#include "tufp/util/timer.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using namespace tufp;

using Clock = std::chrono::steady_clock;

[[noreturn]] void usage() {
  std::cerr << "usage: wirebench gen|replay [options] (see wirebench.cpp)\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage();
    if (a == "--traced") {
      flags[a] = "1";
    } else {
      if (i + 1 >= argc) usage();
      flags[a] = argv[++i];
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    std::cerr << "wirebench: missing " << name << "\n";
    usage();
  }
  return it->second;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ------------------------------------------------------------------- gen

// Same rendering as tufp_serve's --workload sessions (precision 17
// round-trips every double through the daemon's std::stod).
std::string render_req_line(const TimedRequest& t) {
  std::ostringstream os;
  os.precision(17);
  os << "req " << t.request.source << ' ' << t.request.target << ' '
     << t.request.demand << ' ' << t.request.value << ' ' << t.arrival_time;
  if (t.duration < kInf) os << ' ' << t.duration;
  return os.str();
}

int run_gen(const std::map<std::string, std::string>& flags) {
  const WallTimer timer;
  StreamingScenario scenario = make_streaming_grid_scenario(
      std::stoi(need(flags, "--rows")), std::stoi(need(flags, "--cols")),
      std::stod(need(flags, "--capacity")), ValueModel::kUniform);
  RequestGenConfig& rc = scenario.request_config;
  rc.source_pool = std::stoi(get(flags, "--source-pool", "0"));
  rc.source_stride = std::stoi(get(flags, "--source-stride", "1"));
  rc.target_radius = std::stoi(get(flags, "--target-radius", "0"));
  // A grid is strongly connected: skip the per-sample reachability probe.
  rc.assume_connected = rc.target_radius == 0;
  DurationConfig durations;
  durations.profile = DurationProfile::kExponential;
  durations.mean = std::stod(need(flags, "--duration-mean"));
  const std::int64_t requests = std::stoll(need(flags, "--requests"));
  PoissonStream stream(scenario.graph, rc, std::stod(need(flags, "--rate")),
                       requests, std::stoull(need(flags, "--seed")),
                       durations);
  std::ofstream out(need(flags, "--out"));
  if (!out.good()) throw std::runtime_error("cannot open --out");
  TimedRequest t;
  std::int64_t n = 0;
  while (stream.next(&t)) {
    out << render_req_line(t) << '\n';
    ++n;
  }
  out << "quit\n";
  out.close();
  if (!out.good()) throw std::runtime_error("write failed on --out");
  JsonObject obj;
  obj.field("requests", n).field("gen_seconds", timer.elapsed_seconds());
  std::cout << obj.str() << "\n";
  return 0;
}

// ---------------------------------------------------------------- replay

PaymentPolicy parse_payments(const std::string& name) {
  if (name == "none") return PaymentPolicy::kNone;
  if (name == "dual") return PaymentPolicy::kDualPrice;
  if (name == "critical") return PaymentPolicy::kCritical;
  usage();
}

// One epoch as seen from the serve loop: the run_epoch call and the
// telemetry render of its report.
struct EpochSpans {
  int epoch = -1;
  int batch = 0;
  double run_epoch_s = 0.0;
  double telemetry_s = 0.0;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Mirror of tufp_serve's ServeSession on the subset of the protocol a
// generated session uses (`req` lines, `quit`) with the occupancy trigger
// only: the daemon's config, queue, trigger and telemetry calls, in its
// order.
class Replay {
 public:
  Replay(std::shared_ptr<const Graph> graph, EpochEngineConfig config,
         obs::TelemetrySink* sink, bool traced)
      : max_batch_(config.max_batch),
        queue_(config.queue_capacity),
        engine_(std::move(graph), config),
        telemetry_(sink, {0, true}),
        sink_(sink),
        traced_(traced) {}

  void drive(std::istream& in) {
    emit_meta();
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream is(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (is >> tok) {
        if (tok[0] == '#') break;
        tokens.push_back(tok);
      }
      if (tokens.empty()) continue;
      if (tokens[0] == "quit") break;
      if (tokens[0] != "req" || tokens.size() < 5 || tokens.size() > 7) {
        throw std::runtime_error("replay: unsupported session line: " + line);
      }
      TimedRequest timed;
      timed.request.source = std::stoi(tokens[1]);
      timed.request.target = std::stoi(tokens[2]);
      timed.request.demand = std::stod(tokens[3]);
      timed.request.value = std::stod(tokens[4]);
      const double arrival = tokens.size() >= 6 ? std::stod(tokens[5]) : clock_;
      timed.duration = tokens.size() >= 7 ? std::stod(tokens[6]) : kInf;
      timed.sequence = next_sequence_++;
      clock_ = std::max(clock_, arrival);
      timed.arrival_time = clock_;
      const bool queued = queue_.push(timed);
      engine_.record_ingest(1, queued ? 0 : 1);
      while (queue_.size() >= static_cast<std::size_t>(max_batch_)) {
        clear_batch(clock_);
      }
    }
    while (!queue_.empty()) clear_batch(clock_);
    const auto* ledger = engine_.lease_ledger();
    const double wall = timer_.elapsed_seconds();
    const auto seen = engine_.metrics().counters().requests_seen;
    telemetry_.finish(engine_.metrics(),
                      ledger != nullptr ? ledger->active_count() : 0,
                      engine_.metrics().occupancy(), wall,
                      wall > 0.0 ? static_cast<double>(seen) / wall : 0.0);
  }

  const std::vector<EpochSpans>& epochs() const { return epochs_; }
  std::int64_t requests() const { return next_sequence_; }

 private:
  void clear_batch(double close_time) {
    std::vector<TimedRequest> batch;
    batch.reserve(static_cast<std::size_t>(max_batch_));
    TimedRequest item;
    while (static_cast<int>(batch.size()) < max_batch_ && queue_.pop(&item)) {
      batch.push_back(std::move(item));
    }
    if (batch.empty()) return;
    const Clock::time_point t0 = Clock::now();
    AdmissionReport report;
    {
      obs::SpanScope span("run_epoch");
      report = engine_.run_epoch(batch, close_time);
    }
    report.queue_depth = static_cast<std::int64_t>(queue_.size());
    const Clock::time_point t1 = Clock::now();
    {
      obs::SpanScope span("telemetry");
      telemetry_.on_epoch(report, engine_.metrics());
    }
    clock_ = std::max(clock_, close_time);
    if (traced_) {
      const Clock::time_point t2 = Clock::now();
      EpochSpans s;
      s.epoch = report.epoch;
      s.batch = report.batch_size;
      s.run_epoch_s = seconds_between(t0, t1);
      s.telemetry_s = seconds_between(t1, t2);
      epochs_.push_back(s);
    }
  }

  void emit_meta() {
    JsonObject obj;
    obj.field("event", "meta")
        .field("chan", "det")
        .field("tool", "tufp_serve")
        .field("source", "stdin")
        .field("vertices", engine_.base_graph().num_vertices())
        .field("edges", engine_.base_graph().num_edges())
        .field("max_batch", max_batch_)
        .field("epoch_duration", 0.0)
        .field("sanity_every", 0);
    sink_->emit(obs::Channel::kDeterministic, obj.str());
  }

  int max_batch_;
  BoundedRequestQueue queue_;
  EpochEngine engine_;
  obs::EpochTelemetry telemetry_;
  obs::TelemetrySink* sink_;
  bool traced_;
  WallTimer timer_;
  double clock_ = 0.0;
  std::int64_t next_sequence_ = 0;
  std::vector<EpochSpans> epochs_;
};

int run_replay(const std::map<std::string, std::string>& flags) {
  const bool traced = flags.count("--traced") > 0;
  const int threads = std::stoi(need(flags, "--threads"));
  if (threads > 0 && !openmp_available()) {
    throw std::runtime_error("--threads needs an OpenMP build");
  }
  std::ifstream session(need(flags, "--session"));
  if (!session.good()) throw std::runtime_error("cannot open --session");
  std::ofstream det(need(flags, "--det-out"));
  std::ofstream wall(need(flags, "--wall-out"));
  if (!det.good() || !wall.good()) {
    throw std::runtime_error("cannot open --det-out/--wall-out");
  }

  const StreamingScenario scenario = make_streaming_grid_scenario(
      std::stoi(need(flags, "--rows")), std::stoi(need(flags, "--cols")),
      std::stod(need(flags, "--capacity")), ValueModel::kUniform);
  // tufp_serve's defaults, as its ServeSession sets them.
  EpochEngineConfig config;
  config.max_batch = std::stoi(need(flags, "--max-batch"));
  config.queue_capacity = 1 << 16;
  config.payments = parse_payments(need(flags, "--payments"));
  config.solver.epsilon = 1.0 / 6.0;
  config.solver.num_threads = threads;
  config.solver.sp_kernel = SpKernel::kAuto;

  obs::StreamSink sink(&det, &wall);
  obs::SpanProfiler profiler;
  if (traced) obs::install_span_profiler(&profiler);
  Replay replay(scenario.graph, config, &sink, traced);
  const double cpu0 = cpu_seconds();
  const WallTimer timer;
  replay.drive(session);
  const double wall_s = timer.elapsed_seconds();
  const double cpu_s = cpu_seconds() - cpu0;
  if (traced) obs::install_span_profiler(nullptr);
  det.close();
  wall.close();
  if (!det.good() || !wall.good()) throw std::runtime_error("write failed");

  std::ostringstream phases;
  phases << '[';
  bool first = true;
  for (const auto& [name, stat] : profiler.phases()) {
    if (!first) phases << ',';
    first = false;
    JsonObject row;
    row.field("name", name)
        .field("count", stat.count)
        .field("total_s", stat.total_seconds);
    phases << row.str();
  }
  phases << ']';

  // Collapsed stacks ("a;b;c <self microseconds>") as [stack, self_s] rows.
  std::ostringstream stacks;
  stacks << '[';
  first = true;
  std::istringstream collapsed(profiler.collapsed_stacks());
  std::string row_line;
  while (std::getline(collapsed, row_line)) {
    const auto space = row_line.rfind(' ');
    if (space == std::string::npos) continue;
    if (!first) stacks << ',';
    first = false;
    JsonObject row;
    row.field("stack", row_line.substr(0, space))
        .field("self_s", 1e-6 * std::stod(row_line.substr(space + 1)));
    stacks << row.str();
  }
  stacks << ']';

  std::ostringstream epochs;
  epochs << '[';
  first = true;
  for (const EpochSpans& s : replay.epochs()) {
    if (!first) epochs << ',';
    first = false;
    JsonObject row;
    row.field("epoch", s.epoch)
        .field("batch", s.batch)
        .field("run_epoch_s", s.run_epoch_s)
        .field("telemetry_s", s.telemetry_s);
    epochs << row.str();
  }
  epochs << ']';

  JsonObject report;
  report.field("traced", traced)
      .field("requests", replay.requests())
      .field("wall_s", wall_s)
      .field("cpu_s", cpu_s)
      .raw("phases", phases.str())
      .raw("stacks", stacks.str())
      .raw("epochs", epochs.str());
  std::ofstream out(need(flags, "--report"));
  out << report.str() << "\n";
  out.close();
  if (!out.good()) throw std::runtime_error("cannot write --report");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  try {
    const auto flags = parse_flags(argc, argv, 2);
    if (mode == "gen") return run_gen(flags);
    if (mode == "replay") return run_replay(flags);
  } catch (const std::exception& e) {
    std::cerr << "wirebench: " << e.what() << "\n";
    return 1;
  }
  usage();
}
