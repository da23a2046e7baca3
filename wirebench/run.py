#!/usr/bin/env python3
"""Wire-to-decision benchmark for tufp_serve.

One client process drives the real tufp_serve binary over its stdin pipe:
the main thread writes `req` lines (all at once, or on an open-loop wall
schedule), a reader thread timestamps every `epoch_wall` line the daemon
writes to its unbuffered stderr. Under the occupancy trigger alone
(--max-batch B), epoch k decides requests [kB, (k+1)B), so a request's
latency runs from its *due* send time to its epoch's `epoch_wall` line.

  python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints
the per-layer metrics from a traced in-process replay of the same session
(wirebench replay, linking libtufp), plus the serve-side wire numbers.
Either way the run is gated on correctness: the det stdout of every
session and of the replay must be byte-identical, the outcome counts must
conserve, nothing may be queue-dropped, and an untimed `--sanity every-N`
session must exit 0. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a failed gate prints it with
"correct": false and exits 1.

The benchmark builds the daemon and its own tool from the sources in the
checkout into .bench_build/ (CMake, Release) on first use.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Each workload loads a different layer (see notes.json for the full
# layer -> end-to-end map). `vrate` is the *virtual* arrival rate of the
# generated timeline (it sets occupancy); `ladder` holds the fixed wall
# rates (req/s) sustained_rps is searched on (ratio 1.2, spanning the
# capacity measured on a 4-vCPU host), `reference_rate` the rate
# decide_p50/p99 are measured at (a quarter to a third of that capacity, so
# the batch-fill wait rather than queueing sets the latency), `limit_ms`
# the p99 latency limit.
WORKLOADS = {
    "contended-grid": {
        "rows": 12, "cols": 12, "capacity": 20, "requests": 15000,
        "vrate": 10000, "duration_mean": 0.15, "batch": 100,
        "payments": "dual", "threads": 2,
        "ladder": [7200, 8700, 10400, 12500, 15000, 18000, 21600, 25900],
        "reference_rate": 4000, "limit_ms": 250.0,
    },
    "sparse-mesh-churn": {
        "rows": 316, "cols": 316, "capacity": 16, "requests": 10000,
        "vrate": 10000, "duration_mean": 0.25, "batch": 50,
        "payments": "none", "threads": 2,
        "source_pool": 32, "source_stride": 3100, "target_radius": 8,
        "ladder": [7200, 8700, 10400, 12500, 15000, 18000, 21600, 25900],
        "reference_rate": 3000, "limit_ms": 250.0,
    },
    "critical-pay": {
        "rows": 8, "cols": 8, "capacity": 8, "requests": 2000,
        "vrate": 2000, "duration_mean": 0.2, "batch": 10,
        "payments": "critical", "threads": 1,
        "ladder": [820, 980, 1180, 1410, 1690, 2030, 2440, 2930],
        "reference_rate": 500, "limit_ms": 1000.0,
    },
}

SETUP_SPAWNS = 4          # dedicated set-up samples per cycle
WARMUP_FRAC = 0.25        # paced-session prefix excluded from latency
MAX_SHORTFALL = 0.08      # decided / offered rate >= 0.92: "no backlog"
SANITY_EVERY = 4
SANITY_PREFIX = 0.25      # share of the session the --sanity run replays
MIN_CYCLES = 3            # drain + reference + search cycles per run
SESSION_TIMEOUT_S = 120.0


class GateError(Exception):
    """A correctness-gate failure: the run prints correct=false, exits 1."""


# ------------------------------------------------------------------ build

def build():
    """Configures and builds tufp_serve + wirebench; exits 1 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "tools", "tufp_serve.cpp")):
        sys.stderr.write("wirebench: tufp sources not found next to "
                         "wirebench/; run from a full checkout\n")
        sys.exit(1)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                sys.stderr.write(f"wirebench: cmake configure failed "
                                 f"(see {log_path})\n")
                sys.exit(1)
        cmd = ["cmake", "--build", BUILD, "-j", "4"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            sys.stderr.write(f"wirebench: build failed (see {log_path})\n")
            sys.exit(1)
    return os.path.join(BUILD, "tufp_serve"), os.path.join(BUILD, "wirebench")


# ------------------------------------------------------------- statistics

def percentile(sorted_values, q):
    """Nearest-rank percentile of raw samples (no histogram)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def highest_supported_percentile(n):
    """Highest percentile with at least ten samples beyond it, in percent."""
    if n <= 10:
        return 0.0
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def crossing(rate_lo, score_lo, rate_hi, score_hi):
    """Rate where the score crosses 1, linear in log-rate between a
    passing rung (score_lo <= 1) and the failing rung above it."""
    t = (1.0 - score_lo) / (score_hi - score_lo)
    return rate_lo * (rate_hi / rate_lo) ** min(1.0, max(0.0, t))


median = statistics.median


# ---------------------------------------------------------------- session

class Session:
    """One tufp_serve process: wall-channel arrivals, rusage, exit code."""

    def __init__(self):
        self.t_spawn = 0.0
        self.t_exit = 0.0
        self.walls = []           # (arrival ts, epoch, solve_s, reclaim_s)
        self.stderr_other = []
        self.late = []            # per-line write time - due time (paced)
        self.due = []             # per-line absolute due time (paced)
        self.rusage = None
        self.exit_code = None
        self.det_path = None

    def setup_s(self):
        """Spawn to ready: first decision minus that epoch's own work."""
        ts, _, solve, reclaim = self.walls[0]
        return ts - solve - reclaim - self.t_spawn

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def run_serve(serve_args, lines, det_path, due_offsets=None):
    """Runs one session. `lines` are the encoded req lines (the trailing
    `quit` is sent after them); with `due_offsets` each line i is written
    no earlier than t0 + due_offsets[i], otherwise everything is piped at
    once."""
    s = Session()
    s.det_path = det_path
    with open(det_path, "wb") as det:
        s.t_spawn = time.perf_counter()
        proc = subprocess.Popen(serve_args, stdin=subprocess.PIPE,
                                stdout=det, stderr=subprocess.PIPE,
                                bufsize=0)
    reaped = False
    try:
        err_fd = proc.stderr.fileno()

        def reader():
            pending = b""
            while True:
                chunk = os.read(err_fd, 65536)
                ts = time.perf_counter()
                if not chunk:
                    break
                pending += chunk
                *complete, pending = pending.split(b"\n")
                for raw in complete:
                    if b'"epoch_wall"' in raw:
                        ev = json.loads(raw)
                        s.walls.append((ts, ev["epoch"], ev["solve_seconds"],
                                        ev["reclaim_seconds"]))
                    elif raw:
                        s.stderr_other.append(raw.decode(errors="replace"))

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        in_fd = proc.stdin.fileno()
        try:
            if due_offsets is None:
                _write_all(in_fd, b"".join(lines))
            else:
                _paced_write(in_fd, lines, due_offsets, s)
            _write_all(in_fd, b"quit\n")
        except BrokenPipeError:
            pass  # the daemon died; its exit code reports it
        proc.stdin.close()
        watchdog = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, rusage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        reaped = True
        s.t_exit = time.perf_counter()
        s.rusage = rusage
        s.exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = s.exit_code
        thread.join()
        proc.stderr.close()
    finally:
        if not reaped:
            proc.kill()
            proc.wait()
    return s


def _paced_write(fd, lines, due_offsets, s):
    t0 = time.perf_counter()
    n = len(lines)
    s.due = [t0 + d for d in due_offsets]
    s.late = [0.0] * n
    i = 0
    while i < n:
        now = time.perf_counter()
        if now < s.due[i]:
            time.sleep(s.due[i] - now)
            continue
        j = i + 1
        while j < n and s.due[j] <= now:
            j += 1
        _write_all(fd, b"".join(lines[i:j]))
        sent = time.perf_counter()
        for k in range(i, j):
            s.late[k] = sent - s.due[k]
        i = j


# ------------------------------------------------------------ det checks

def read_det(path):
    with open(path, "rb") as f:
        data = f.read()
    events = [json.loads(line) for line in data.splitlines() if line]
    return data, events


def check_det(events, n_requests, batch):
    """Conservation, queue drops and the epoch -> request-range mapping."""
    summaries = [e for e in events if e["event"] == "summary"]
    if len(summaries) != 1:
        raise GateError("det stream has no single summary event")
    s = summaries[0]
    if s["requests"] != n_requests:
        raise GateError(f"summary.requests {s['requests']} != {n_requests}")
    decided = (s["admitted"] + s["no_path"] + s["capacity_blocked"] +
               s["lost_auction"] + s["shard_conflict"] + s["invalid"])
    if decided != s["requests"]:
        raise GateError(f"outcome counts do not conserve: {decided} != "
                        f"{s['requests']}")
    if s["queue_dropped"] != 0:
        raise GateError(f"queue_dropped = {s['queue_dropped']}")
    epochs = [e for e in events if e["event"] == "epoch"]
    expected = math.ceil(n_requests / batch)
    if len(epochs) != expected:
        raise GateError(f"{len(epochs)} epochs, expected {expected}")
    for k, e in enumerate(epochs):
        want = batch if k < expected - 1 else n_requests - batch * k
        if e["epoch"] != k or e["batch"] != want:
            raise GateError(f"epoch {k} decided {e['batch']} requests, "
                            f"the occupancy trigger implies {want}")
    return s, epochs


def session_failed(s, summary, n_requests, batch):
    """Requests that did not get a decision on the wire."""
    if s.exit_code != 0:
        return n_requests
    seen = {epoch for _, epoch, _, _ in s.walls}
    decided = sum(min(batch, n_requests - batch * k) for k in seen)
    undecided = n_requests - decided
    return summary["queue_dropped"] + summary["invalid"] + undecided


def latencies(s, batch, first, last):
    """Wire-to-decision latency (s) of requests [first, last)."""
    decided_at = {epoch: ts for ts, epoch, _, _ in s.walls}
    out = []
    for i in range(first, last):
        ts = decided_at.get(i // batch)
        out.append(float("inf") if ts is None else ts - s.due[i])
    return out


# --------------------------------------------------------------- the run

class Run:
    def __init__(self, name, seed, seconds):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.serve, self.tool = build()
        self.dir = os.path.join(BUILD, "runs",
                                f"{name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.det_bytes = None     # the reference det stream
        self.summary = None
        self.epoch_events = None
        self._gen()

    def _gen(self):
        w = self.w
        self.session_path = os.path.join(self.dir, "session.txt")
        cmd = [self.tool, "gen", "--rows", str(w["rows"]),
               "--cols", str(w["cols"]), "--capacity", str(w["capacity"]),
               "--requests", str(w["requests"]), "--rate", str(w["vrate"]),
               "--duration-mean", str(w["duration_mean"]),
               "--seed", str(self.seed), "--out", self.session_path]
        for key in ("source_pool", "source_stride", "target_radius"):
            if key in w:
                cmd += ["--" + key.replace("_", "-"), str(w[key])]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        self.gen = json.loads(out.stdout.strip().splitlines()[-1])
        with open(self.session_path, "rb") as f:
            raw = f.read().splitlines(keepends=True)
        if raw[-1] != b"quit\n":
            raise GateError("generated session does not end in quit")
        self.lines = raw[:-1]
        self.n = len(self.lines)

    def serve_args(self, *extra):
        w = self.w
        return [self.serve, "--rows", str(w["rows"]), "--cols",
                str(w["cols"]), "--capacity", str(w["capacity"]),
                "--max-batch", str(w["batch"]), "--payments", w["payments"],
                "--threads", str(w["threads"]), *extra]

    def _det_path(self, tag):
        return os.path.join(self.dir, f"{tag}.det")

    def timed_session(self, tag, due_offsets=None):
        """A full session whose det stream joins the identity gate."""
        s = run_serve(self.serve_args(), self.lines, self._det_path(tag),
                      due_offsets)
        data, events = read_det(s.det_path)
        if s.exit_code != 0:
            raise GateError(f"{tag}: tufp_serve exited {s.exit_code}: "
                            + " | ".join(s.stderr_other[-3:]))
        summary, epochs = check_det(events, self.n, self.w["batch"])
        self.attempted += self.n
        self.failed += session_failed(s, summary, self.n, self.w["batch"])
        if self.det_bytes is None:
            self.det_bytes = data
            self.summary = summary
            self.epoch_events = epochs
        elif data != self.det_bytes:
            raise GateError(f"{tag}: det stdout differs from the first "
                            "session's (byte-identity gate)")
        if len(s.walls) != len(epochs):
            raise GateError(f"{tag}: {len(s.walls)} epoch_wall lines for "
                            f"{len(epochs)} epochs")
        os.remove(s.det_path)
        return s

    def sanity_session(self):
        """Untimed: the first SANITY_PREFIX of the session with the
        daemon's in-service conservation oracles on; must exit 0."""
        prefix = self.lines[:int(SANITY_PREFIX * self.n)]
        s = run_serve(self.serve_args("--sanity", f"every-{SANITY_EVERY}"),
                      prefix, self._det_path("sanity"))
        _, events = read_det(s.det_path)
        sweeps = [e for e in events if e["event"] == "sanity"]
        if s.exit_code != 0 or not sweeps or any(e["violations"]
                                                  for e in sweeps):
            raise GateError(f"--sanity every-{SANITY_EVERY} session failed "
                            f"(exit {s.exit_code})")
        os.remove(s.det_path)

    def setup_samples(self):
        """Dedicated spawns: the first batch piped at once, then quit."""
        out = []
        prefix = self.lines[:self.w["batch"]]
        for k in range(SETUP_SPAWNS):
            s = run_serve(self.serve_args(), prefix,
                          self._det_path(f"setup{k}"))
            if s.exit_code != 0 or not s.walls:
                raise GateError(f"set-up spawn {k} failed")
            os.remove(s.det_path)
            out.append(s.setup_s())
        return out

    def drain(self, tag):
        s = self.timed_session(tag)
        ready = s.walls[0][0] - s.walls[0][2] - s.walls[0][3]
        window = s.walls[-1][0] - ready
        return {"setup_s": s.setup_s(),
                "rps": self.n / window, "wall_s": window,
                "cpu_per_kreq": s.cpu_s() / (self.n / 1000.0),
                "cpu_over_wall": s.cpu_s() / (s.t_exit - s.t_spawn),
                "rss_mb": s.rusage.ru_maxrss / 1024.0}

    def paced(self, tag, rate):
        """The whole session on an open-loop schedule at a constant rate;
        a warm-up prefix of whole epochs is excluded from the figures."""
        s = self.timed_session(tag, [i / rate for i in range(self.n)])
        b = self.w["batch"]
        warm = math.ceil(WARMUP_FRAC * self.n / b) * b
        lat = sorted(latencies(s, b, warm, self.n))
        # Decided rate over the measured requests: from the first one's
        # due time to the last decision. A daemon that keeps up ends one
        # epoch after the last send; one that falls behind ends late by
        # its backlog, and a backlog left from the warm-up that drains in
        # time costs nothing.
        achieved = (self.n - warm) / (s.walls[-1][0] - s.due[warm])
        return {"rate": rate, "warmup": warm, "lat": lat,
                "p99_ms": percentile(lat, 0.99) * 1e3,
                "gen_late_p99_s": percentile(sorted(s.late[warm:]), 0.99),
                "shortfall": 1.0 - achieved / rate, "achieved": achieved}

    def rung(self, k, tag):
        """One paced session at ladder rung k. Its score is the worse of
        p99 / limit and shortfall / MAX_SHORTFALL; the rung is sustained
        when the score is at most 1."""
        r = self.paced(tag, self.w["ladder"][k])
        r["score"] = max(r["p99_ms"] / self.w["limit_ms"],
                         r["shortfall"] / MAX_SHORTFALL)
        r["ok"] = r["score"] <= 1.0
        return r

    def sustained(self, hint, tag):
        """One search of the fixed ladder for the highest sustained rate.
        It starts at the highest rung at or below `hint` and walks up while
        rungs pass, down while they fail, until it holds a passing rung and
        the failing rung above it; the estimate is where the score crosses
        1 between the two (see crossing). Returns the rungs tested and the
        estimate, or None when even the lowest rung fails."""
        ladder = self.w["ladder"]
        tested = {}

        def test(k):
            tested[k] = self.rung(k, f"{tag}-rung{k}")
            return tested[k]["ok"]

        k = max([0] + [i for i, rate in enumerate(ladder) if rate <= hint])
        if test(k):
            while k + 1 < len(ladder) and test(k + 1):
                k += 1
        else:
            while k > 0 and not test(k - 1):
                k -= 1
            k -= 1
        if k < 0:
            return tested, None
        if k + 1 == len(ladder):
            return tested, float(ladder[k])
        return tested, crossing(ladder[k], tested[k]["score"],
                                ladder[k + 1], tested[k + 1]["score"])

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ------------------------------------------------------------ end to end

def end_to_end(run):
    start = time.perf_counter()
    run.sanity_session()
    # Cycles of set-up spawns, one drain, one reference session and one
    # sustained search repeat while another fits in the run's seconds (at
    # least MIN_CYCLES), so a slow stretch of the machine lands in a
    # minority of each kind's samples; every metric is a median over the
    # cycles.
    setup, drains, refs, searches = [], [], [], []
    while True:
        t = time.perf_counter()
        k = len(drains)
        setup += run.setup_samples()
        drains.append(run.drain(f"drain{k}"))
        refs.append(run.paced(f"reference{k}", run.w["reference_rate"]))
        hint = searches[-1][1] if searches else drains[-1]["rps"]
        searches.append(run.sustained(hint or 0.0, f"search{k}"))
        now = time.perf_counter()
        if k + 1 >= MIN_CYCLES and now + (now - t) - start > run.seconds:
            break
    setup += [d["setup_s"] for d in drains]
    replay(run, "replay", False)  # identity gate only, after the timing

    n_lat = sum(len(r["lat"]) for r in refs)
    p_max = highest_supported_percentile(len(refs[0]["lat"]))
    s = run.summary
    # Below the ladder: half the lowest rung's rate, flagged below.
    below = 0.5 * run.w["ladder"][0]
    estimates = [below if e is None else e for _, e in searches]
    metrics = {
        "setup_s": (median(setup), "s", len(setup)),
        "drain_rps": (median([d["rps"] for d in drains]), "req/s",
                      len(drains)),
        "sustained_rps": (median(estimates), "req/s", len(estimates)),
        "decide_p50_ms": (median([percentile(r["lat"], 0.50) * 1e3
                                  for r in refs]), "ms", n_lat),
        "decide_p99_ms": (median([r["p99_ms"] for r in refs]), "ms", n_lat),
        "cpu_s_per_kreq": (median([d["cpu_per_kreq"] for d in drains]), "s",
                           len(drains)),
        "peak_rss_mb": (median([d["rss_mb"] for d in drains]), "MB",
                        len(drains)),
        "welfare_frac": (s["admitted_value"] / s["offered_value"], "ratio",
                         1),
    }
    info = [
        f"reference rate {run.w['reference_rate']} req/s, "
        f"{len(refs)} sessions of {len(refs[0]['lat'])} latency samples "
        f"after a {refs[0]['warmup']}-request warm-up (p50/p99 are medians "
        "over sessions)",
    ] + [
        f"  reference{k}: p50 {percentile(r['lat'], 0.5) * 1e3:.3f} ms, "
        f"p99 {r['p99_ms']:.3f} ms, highest supported p{p_max:g} "
        f"{percentile(r['lat'], p_max / 100.0) * 1e3:.3f} ms, generator "
        f"late p99 {r['gen_late_p99_s'] * 1e3:.3f} ms, shortfall "
        f"{r['shortfall']:.4f}" for k, r in enumerate(refs)
    ] + [
        "drains (req/s): " + ", ".join(f"{d['rps']:.0f}" for d in drains),
    ] + [
        f"search{k} (limit p99 <= {run.w['limit_ms']:g} ms): " + ", ".join(
            f"{r['rate']}:{'ok' if r['ok'] else 'FAIL'}"
            f"(p99 {r['p99_ms']:.1f} ms, shortfall {r['shortfall']:.3f})"
            for _, r in sorted(rungs.items()))
        + ("; below the ladder" if e is None else f" -> {e:.0f} req/s")
        for k, (rungs, e) in enumerate(searches)
    ]
    if None in [e for _, e in searches]:
        info.append("sustained_rps: a search sustained no rung and counts "
                    "as half the lowest rung")
    return metrics, info


# ------------------------------------------------------------- per layer

def span_totals(traced):
    """Inclusive seconds per span stack, from the collapsed self times.
    Checks that no child phase exceeds its parent: where a stack's leaf
    phase runs in that stack only, its children's inclusive times must fit
    inside the profiler's directly measured total for it (up to the
    microsecond rounding of the collapsed dump)."""
    totals = {}
    for row in traced["stacks"]:
        parts = row["stack"].split(";")
        for k in range(1, len(parts) + 1):
            key = ";".join(parts[:k])
            totals[key] = totals.get(key, 0.0) + row["self_s"]
    measured = {p["name"]: p["total_s"] for p in traced["phases"]}
    leaves = [key.split(";")[-1] for key in totals]
    for key in totals:
        leaf = key.split(";")[-1]
        if leaves.count(leaf) != 1:
            continue
        children = [k for k in totals
                    if k.startswith(key + ";") and
                    k.count(";") == key.count(";") + 1]
        inside = sum(totals[k] for k in children)
        if inside > measured[leaf] + 1e-6 * (len(totals) + 1):
            raise GateError(f"span children of {key} exceed it: "
                            f"{inside:.6f} > {measured[leaf]:.6f} s")
    return totals


def replay(run, tag, traced):
    w = run.w
    det = os.path.join(run.dir, f"{tag}.det")
    report = os.path.join(run.dir, f"{tag}.json")
    cmd = [run.tool, "replay", "--session", run.session_path,
           "--rows", str(w["rows"]), "--cols", str(w["cols"]),
           "--capacity", str(w["capacity"]), "--max-batch", str(w["batch"]),
           "--payments", w["payments"], "--threads", str(w["threads"]),
           "--det-out", det, "--wall-out", os.path.join(run.dir, "r.wall"),
           "--report", report]
    if traced:
        cmd.append("--traced")
    rc = subprocess.call(cmd, timeout=SESSION_TIMEOUT_S)
    if rc != 0:
        raise GateError(f"wirebench replay exited {rc}")
    data, _ = read_det(det)
    if data != run.det_bytes:
        raise GateError(f"{tag}: in-process replay det stream differs from "
                        "tufp_serve's stdout")
    with open(report) as f:
        return json.load(f)


def per_layer(run):
    run.sanity_session()
    drains = [run.drain("drain0"), run.drain("drain1")]
    ref = run.paced("reference", run.w["reference_rate"])
    plain = [replay(run, "replay0", False), replay(run, "replay1", False)]
    traced = replay(run, "traced", True)
    totals = span_totals(traced)
    phases = {p["name"]: p for p in traced["phases"]}
    self_s = {row["stack"]: row["self_s"] for row in traced["stacks"]}

    def total(stack):
        return totals.get(stack, 0.0)

    def frac(num, den):
        return num / den if den else 0.0

    s = run.summary
    n = s["requests"]
    ep = run.epoch_events
    occ = sorted(e["occupancy"] for e in ep)
    epoch_s = total("run_epoch;epoch")
    run_epoch_ms = sorted(e["run_epoch_s"] * 1e3 for e in traced["epochs"])
    plain_wall = median([p["wall_s"] for p in plain])
    serve_wall = median([d["wall_s"] for d in drains])
    kept = s.get("trees_kept_on_reclaim", 0)
    dropped = s.get("trees_dropped_on_reclaim", 0)
    m = {
        "graph.open_epoch_s": (total("run_epoch;epoch;snapshot"), "s"),
        "graph.open_epoch_share": (frac(total("run_epoch;epoch;snapshot"),
                                        epoch_s), "ratio"),
        "graph.active_edges_mean": (statistics.fmean(
            e["active_edges"] for e in ep), "count"),
        "graph.occupancy_p10": (percentile(occ, 0.10), "ratio"),
        "graph.occupancy_mean": (statistics.fmean(occ), "ratio"),
        "graph.occupancy_p90": (percentile(occ, 0.90), "ratio"),
        "ufp.solve_self_s": (self_s.get("run_epoch;epoch;solve", 0.0), "s"),
        "ufp.solve_share": (frac(total("run_epoch;epoch;solve"), epoch_s),
                            "ratio"),
        "ufp.sp_refresh_s": (total("run_epoch;epoch;solve;sp_refresh"), "s"),
        "ufp.sp_refresh_calls": (phases.get("sp_refresh", {}).get("count", 0),
                                 "count"),
        "ufp.iterations": (s["solver_iterations"], "count"),
        "ufp.sp_computations": (s["sp_computations"], "count"),
        "ufp.warm_serve_frac": (1.0 - frac(s["sp_tree_runs"],
                                           s["sp_computations"]), "ratio"),
        "ufp.trees_kept_frac": (frac(kept, kept + dropped), "ratio"),
        "mechanism.payments_s": (total("run_epoch;epoch;payments"), "s"),
        "mechanism.payments_share": (frac(total("run_epoch;epoch;payments"),
                                          epoch_s), "ratio"),
        "mechanism.payments_ms_per_winner": (
            1e3 * frac(total("run_epoch;epoch;payments"), s["admitted"]),
            "ms"),
        "mechanism.revenue_frac": (frac(s["revenue"], s["admitted_value"]),
                                   "ratio"),
        "temporal.reclaim_s": (total("run_epoch;epoch;reclaim"), "s"),
        "temporal.leases_expired": (s["leases_expired"], "count"),
        "temporal.reclaim_us_per_lease": (
            1e6 * frac(total("run_epoch;epoch;reclaim"), s["leases_expired"]),
            "us"),
        "engine.run_epoch_ms_p50": (percentile(run_epoch_ms, 0.50), "ms"),
        "engine.run_epoch_ms_p99": (percentile(run_epoch_ms, 0.99), "ms"),
        "engine.self_s": (self_s.get("run_epoch;epoch", 0.0), "s"),
        "engine.commit_s": (total("run_epoch;epoch;commit"), "s"),
        "engine.epochs": (s["epochs"], "count"),
        "engine.batch_mean": (statistics.fmean(e["batch"] for e in ep),
                              "count"),
        "obs.telemetry_s": (total("telemetry"), "s"),
        "obs.trace_overhead_frac": (frac(traced["wall_s"] - plain_wall,
                                         plain_wall), "ratio"),
        "parallel.cpu_over_wall": (median([d["cpu_over_wall"]
                                           for d in drains]), "ratio"),
        "serve.wire_s_per_kreq": ((serve_wall - plain_wall) / (n / 1000.0),
                                  "s"),
        "serve.gen_late_p99_ms": (ref["gen_late_p99_s"] * 1e3, "ms"),
        "serve.backlog_growth": (ref["shortfall"], "ratio"),
        "workload.gen_s_per_kreq": (run.gen["gen_seconds"] / (n / 1000.0),
                                    "s"),
    }
    for outcome, key in (("admitted", "admitted"),
                         ("capacity_blocked", "capacity_blocked"),
                         ("capacity_race", "shard_conflict"),
                         ("lost_auction", "lost_auction"),
                         ("no_path", "no_path")):
        m[f"outcome.{outcome}_frac"] = (frac(s[key], n), "ratio")
    metrics = {k: (v, unit, 1) for k, (v, unit) in m.items()}
    info = [f"traced replay wall {traced['wall_s']:.4f} s, untraced "
            f"{plain_wall:.4f} s, serve drain {serve_wall:.4f} s over {n} "
            "requests"]
    return metrics, info


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run = Run(args.workload, args.seed, args.seconds)
    correct = True
    try:
        metrics, info = (per_layer if args.trace else end_to_end)(run)
    except GateError as e:
        sys.stderr.write(f"wirebench: CORRECTNESS GATE FAILED: {e}\n")
        correct = False
        metrics, info = {}, []
    finally:
        run.cleanup()

    print(f"# wirebench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {run.n} requests per session")
    for line in info:
        print("# " + line)
    for name, (value, unit, count) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit:6s} (n={count})")
    result = {"correct": correct, "attempted": max(1, run.attempted),
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
