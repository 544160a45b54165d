#!/usr/bin/env python3
"""Benchmark of the ssdep binary: design search, fleet Monte Carlo and the
evaluation daemon. See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: it builds ssdep and the in-process
probe with dune, generates the workload's inputs from the seed, measures,
checks every output, and prints one JSON object as its last line. With
--trace 0 that object holds the end-to-end metrics of the untraced binary;
with --trace 1 the per-layer metrics of a traced in-process replay, plus
the trace's closure against an untraced run of the binary on the same
work and its overhead against the same replay with recording off.
"""

import argparse
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

BIN = os.path.join("_build", "default", "bin", "ssdep.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
OUT = os.path.join("perfbench", "_out")
EXAMPLES = [
    os.path.join("examples", "designs", name)
    for name in ("baseline.ssdep", "mail.ssdep", "orders-db.ssdep")
]

# End-to-end times are wall times scaled to a machine on which the probe's
# calibration kernel takes this long (see Clock).
REFERENCE_KERNEL_S = 0.1

# grid-sweep: the grid has 16,327 candidates, so its 32,654 (design,
# scenario) keys overflow the command line's 8,192-entry cache.
GRID_SCALE = 4
ANNEAL_BUDGET = 20000
# Anneal runs per grid sweep: a run's tail is the p90 of its anneal
# times, which with a dozen or more is the second slowest, not the worst.
ANNEAL_REPEATS = 3
# (RTO hours, RPO hours): from 247 to all 16,327 candidates feasible.
# Tighter objectives leave so few feasible designs (6 of 23,047 grid
# points at 12 h / 1 h) that annealing at this budget can miss them all.
OBJECTIVES = [(26, 230), (30, 240), (36, 300), (48, 400), (72, 720), (100, 2000)]

# fleet-*: FLEET_RUNS `ssdep fleet` runs of about a second, each with its
# own seed, their trial count sized from these rates (trials/s on a
# 2-core x86 VM) so that together they last about --seconds.
FLEET = {
    "fleet-baseline": ("baseline", 25000),
    "fleet-mirror": ("asyncB mirror, 10 links", 600),
    "fleet-erasure": ("erasure", 30000),
}
FLEET_HORIZON_YEARS = "1"
# Set-up runs one trial over about 30 s: so short a trial practically
# never samples a failure (a mirror failure alone costs some 20 ms of
# simulation), so set-up times start-up, whatever the seed.
FLEET_SETUP_HORIZON_YEARS = "0.000001"
FLEET_RUNS = 12

# serve: requests per second of --seconds (the load is a fixed count, so
# the same seed always sends the same requests), sent in chunks with a
# calibration between them to each of SERVE_DAEMONS daemons in turn. A
# chunk has twenty requests beyond its p99.
SERVE_RPS = 2000
SERVE_CHUNK = 2000
SERVE_DAEMONS = 6
# The share of requests carrying a never-repeated grid design: the miss
# share of the what-if session in bench/main.ml (four overlapping passes,
# 789 misses in 2,721 lookups in BENCH_parallel.json). Annealing in the
# grid-sweep workload misses about as often (31-35 % of its lookups).
COLD_SHARE = 0.29

SETUP_REPEATS = 21
WORKLOADS = ["grid-sweep", "fleet-baseline", "fleet-mirror", "fleet-erasure", "serve"]

END_TO_END = [
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("tail_ms", "ms"),
]

PER_LAYER = [
    ("candidate.enumerate_s", "s"), ("candidate.words", "words"),
    ("lint.accepts_s", "s"),
    ("design.fingerprint_s", "s"), ("design.fingerprint.words", "words"),
    ("eval_cache.lookup_s", "s"), ("eval_cache.hit_ratio", "ratio"),
    ("eval_cache.evicted", "count"),
    ("evaluate.prepare_s", "s"), ("evaluate.run_prepared_s", "s"),
    ("evaluate.words", "words"),
    ("evaluate.stage.utilization_s", "s"), ("evaluate.stage.outlays_s", "s"),
    ("evaluate.stage.penalties_s", "s"),
    ("evaluate.stage.recovery_time_s", "s"),
    ("evaluate.stage.data_loss_s", "s"),
    ("objective.summarize_s", "s"), ("pareto.insert_s", "s"),
    ("pareto.frontier_size", "count"),
    ("search.self_s", "s"), ("search.replay_drift", "ratio"),
    ("search.major_collections", "count"),
    ("search.top_heap_words", "words"),
    ("anneal.solver_s", "s"), ("anneal.evaluations", "count"),
    ("anneal.cache_hit_ratio", "ratio"), ("anneal.optimum_gap", "ratio"),
    ("fleet.sample_s", "s"), ("fleet.execute_s", "s"),
    ("fleet.aggregate_s", "s"), ("fleet.words_per_trial", "words"),
    ("sim.run_s", "s"), ("sim.run_events_s", "s"),
    ("sim.events_per_failure", "count"),
    ("fleet.multi_event_trials", "count"), ("fleet.fallbacks", "count"),
    ("serve.handler_ms", "ms"), ("serve.transport_ms", "ms"),
    ("spec.parse_ms", "ms"), ("json.encode_ms", "ms"),
    ("eval_cache.run_ms.hot", "ms"), ("eval_cache.run_ms.cold", "ms"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.rejected_busy", "count"),
    ("serve.gc.minor_per_kreq", "count"), ("serve.gc.major_per_kreq", "count"),
    ("trace.closure", "ratio"), ("trace.overhead", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (build, input or harness
    failure); it exits non-zero without printing one."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    """A human-readable result line, before the JSON on standard output."""
    print(msg, flush=True)


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# --- processes ---------------------------------------------------------


def build():
    if not os.path.exists("dune-project"):
        raise BenchError("not at the root of a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ssdep.exe",
         "./perfbench/probe/probe.exe"],
        env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("build failed:\n" + done.stderr[-4000:])


def child_env():
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    env.pop("SSDEP_JOBS", None)
    return env


def probe(args):
    done = subprocess.run([PROBE] + args, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args[0], done.stderr.strip()))
    return done.stdout


def probe_json(args):
    return json.loads(probe(args).strip().splitlines()[-1])


class Clock:
    """Times work in calibrated seconds. A virtual machine whose cores
    other tenants share drifts in speed by up to a third within minutes
    (measured on a 2-core x86 VM); a run-to-run spread that wide would
    hide any change to the program. So the clock runs a fixed kernel
    that shares no code with the program before and after each timed
    piece of work, and scales the wall time by the reference kernel time
    over the mean of the two kernel times: the time the work would take
    on a machine where the kernel takes REFERENCE_KERNEL_S."""

    def __init__(self):
        self.kernel_s = [self.kernel()]

    @staticmethod
    def kernel():
        return probe_json(["calibrate"])["seconds"]

    def timed(self, work):
        """Runs work(); returns (its value, wall seconds, scale factor)."""
        start = time.perf_counter()
        value = work()
        wall = time.perf_counter() - start
        before = self.kernel_s[-1]
        self.kernel_s.append(self.kernel())
        return value, wall, benchlib.speed_factor(REFERENCE_KERNEL_S, before,
                                                  self.kernel_s[-1])

    def report(self):
        say("  calibration kernel %.1f ms median of %d (reference %.0f ms)"
            % (statistics.median(self.kernel_s) * 1e3, len(self.kernel_s),
               REFERENCE_KERNEL_S * 1e3))


def calibrated_layers(layers, factor):
    """The probe's per-layer numbers with every time scaled by `factor`."""
    return {name: value * factor
            if name.endswith(("_s", "_ms")) or "_ms." in name else value
            for name, value in layers.items()}


def run_ssdep(clock, args):
    """One timed ssdep run: (scaled seconds, returncode, stdout, exit stats)."""
    done, wall, factor = clock.timed(lambda: subprocess.run(
        [BIN] + args, env=child_env(), capture_output=True, text=True))
    return (wall * factor, done.returncode, done.stdout,
            benchlib.parse_exit_stats(done.stderr))


def median_setup(clock, once):
    """Median of SETUP_REPEATS set-up times, each scaled by the calibration
    runs on either side of it."""
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, _, factor = clock.timed(once)
        times.append(seconds * factor)
    return statistics.median(times)


def command_setup(clock, args):
    """The subcommand on its smallest input."""
    def once():
        start = time.perf_counter()
        done = subprocess.run([BIN] + args, env=child_env(), capture_output=True)
        if done.returncode != 0:
            raise BenchError("set-up run %s exited %d" % (args, done.returncode))
        return time.perf_counter() - start
    return median_setup(clock, once)


# --- grid-sweep --------------------------------------------------------


def grid_args(rto, rpo):
    return ["optimize", "--grid-scale", str(GRID_SCALE), "--rto", str(rto),
            "--rpo", str(rpo), "--jobs", "1"]


def parse_grid_output(text):
    """Counts and winner of the default `ssdep optimize` report."""
    lines = text.splitlines()
    words = lines[0].split()
    if len(words) < 4 or words[1] != "candidates," or words[3] != "feasible,":
        raise ValueError("unexpected first line %r" % lines[0])
    best = [l for l in lines if l.startswith("best: ")]
    if len(best) != 1:
        raise ValueError("no single best line")
    # "best: NAME   out $X   worst RT ..."; the name ends before " out $".
    name = best[0][len("best: "):].split(" out $")[0].strip()
    return {"considered": int(words[0]), "feasible": int(words[2]), "best": name}


def grid_unit(clock, rto, rpo, anneal_seed, ref, tally):
    """One grid sweep and ANNEAL_REPEATS anneal runs over the same space,
    checked."""
    grid_s, code, out, grid_stats = run_ssdep(clock, grid_args(rto, rpo))
    ok = code == 0
    if ok:
        try:
            got = parse_grid_output(out)
            ok = (got["considered"] == ref["considered"]
                  and got["feasible"] == ref["feasible"]
                  and got["best"] == ref["best"])
        except (ValueError, IndexError):
            ok = False
    tally.check(ok, "grid sweep output differs from the in-process search")
    anneal_s, heaps = [], [benchlib.heap_mib(grid_stats)]
    for _ in range(ANNEAL_REPEATS):
        seconds, code, out, stats = run_ssdep(
            clock, grid_args(rto, rpo) + ["--solver", "anneal", "--budget",
                                          str(ANNEAL_BUDGET), "--seed",
                                          str(anneal_seed), "--json"])
        ok = code == 0
        if ok:
            try:
                got = json.loads(out)
                ok = (got["feasible"] is True
                      and got["grid_points"] == ref["grid_points"]
                      and got["best"]["total_usd"]
                      >= ref["best_total_usd"] * (1 - 1e-12))
            except (ValueError, KeyError, TypeError):
                ok = False
        tally.check(ok, "anneal result infeasible or cheaper than the grid optimum")
        anneal_s.append(seconds)
        heaps.append(benchlib.heap_mib(stats))
    return {"grid_s": grid_s, "anneal_s": anneal_s, "heap_mib": max(heaps),
            "grid_stats": grid_stats}


def grid_inputs(seed):
    """The objectives and the anneal seed every unit of the run uses."""
    g = benchlib.rng("grid-sweep", seed)
    rto, rpo = g.choice(OBJECTIVES)
    return rto, rpo, g.getrandbits(62)


def grid_units(clock, seed, seconds, tally, min_units):
    """Units until `seconds` of wall time have passed; the reference
    outcome of an in-process Search.run is computed first, untimed."""
    rto, rpo, anneal_seed = grid_inputs(seed)
    ref = probe_json(["grid-ref", str(GRID_SCALE), str(rto), str(rpo)])
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < min_units or time.perf_counter() < deadline:
        units.append(grid_unit(clock, rto, rpo, anneal_seed, ref, tally))
    return (rto, rpo, anneal_seed, ref), units


def grid_sweep(clock, seed, seconds, tally):
    setup = command_setup(clock, ["optimize", "--grid-scale", "1", "--jobs", "1"])
    (rto, rpo, _, ref), units = grid_units(clock, seed, seconds, tally, 3)
    anneal_ms = [s * 1e3 for u in units for s in u["anneal_s"]]
    label, tail_ms, n = benchlib.tail(anneal_ms)
    cps = statistics.median(ref["considered"] / u["grid_s"] for u in units)
    say("grid-sweep: scale %d (%d candidates), rto %g h, rpo %g h, %d units"
        % (GRID_SCALE, ref["considered"], rto, rpo, len(units)))
    say("  candidates_per_s %.1f 1/s (median of %d)" % (cps, len(units)))
    say("  anneal_s %.4f s (median of %d; %s %.4f s)"
        % (statistics.median(anneal_ms) / 1e3, n, label, tail_ms / 1e3))
    return {
        "setup_s": setup,
        "peak_heap_mib": statistics.median(u["heap_mib"] for u in units),
        "throughput_per_s": cps,
        "latency_ms": statistics.median(anneal_ms),
        "tail_ms": tail_ms,
    }


def grid_sweep_traced(clock, seed, seconds, tally):
    (rto, rpo, anneal_seed, ref), units = grid_units(clock, seed, seconds / 3,
                                                    tally, 2)
    untraced = (statistics.median(u["grid_s"] for u in units)
                + statistics.median(s for u in units for s in u["anneal_s"]))
    trace_out = os.path.join(OUT, "trace-grid-sweep.json")
    got, _, factor = clock.timed(lambda: probe_json(
        ["grid-trace", str(GRID_SCALE), str(rto), str(rpo), str(ANNEAL_BUDGET),
         str(anneal_seed), trace_out]))
    same = all(got[k] == ref[k] for k in
               ("considered", "feasible", "frontier", "best", "best_total_usd"))
    tally.check(same, "traced replay disagrees with Search.run")
    tally.check(got["replay_matches_search"],
                "untraced replay disagrees with the in-process Search.run")
    layers = calibrated_layers(got["layers"], factor)
    # The gap is null when either search found no feasible design.
    gap = layers["anneal.optimum_gap"]
    tally.check(got["anneal_feasible"] and gap is not None and gap >= 0,
                "traced anneal infeasible or below the grid optimum")
    layers["anneal.optimum_gap"] = gap or 0.0
    closure_parts = [v for k, v in layers.items() if k.endswith("_s")]
    layers.update(calibrated_layers(got["attribution"], factor))
    grid_stats = units[0]["grid_stats"]
    layers["search.major_collections"] = grid_stats["major_collections"]
    layers["search.top_heap_words"] = grid_stats["top_heap_words"]
    layers["trace.closure"] = benchlib.closure(closure_parts, untraced)
    layers["trace.overhead"] = got["overhead"]
    return layers, trace_out


# --- fleet -------------------------------------------------------------


def fleet_inputs(workload, seed, seconds):
    """The preset, one fleet seed per run, and the trials of each run."""
    preset, rate = FLEET[workload]
    g = benchlib.rng(workload, seed)
    seeds = [g.getrandbits(62) for _ in range(FLEET_RUNS)]
    return preset, seeds, max(1, round(rate * seconds / FLEET_RUNS))


def fleet_args(preset, trials, fleet_seed, years=FLEET_HORIZON_YEARS):
    return ["fleet", "-d", preset, "--trials", str(trials), "--seed",
            str(fleet_seed), "--horizon-years", years, "--json", "--jobs", "1"]


def fleet_run(clock, preset, trials, fleet_seed, tally):
    """One timed, checked `ssdep fleet` run: (scaled seconds, stdout, exit
    stats, failures simulated)."""
    seconds, code, out, stats = run_ssdep(clock, fleet_args(preset, trials, fleet_seed))
    failures = 0
    ok = code == 0
    if ok:
        try:
            report = json.loads(out)
            failures = report["failures"]
            ok = report["trials"] == trials and report["seed"] == str(fleet_seed)
        except (ValueError, KeyError):
            ok = False
    tally.check(ok, "fleet report missing or for other trials")
    return seconds, out, stats, failures


def fleet(clock, workload, seed, seconds, tally):
    preset, seeds, trials = fleet_inputs(workload, seed, seconds)
    setup = command_setup(clock, fleet_args(preset, 1, seeds[0],
                                            FLEET_SETUP_HORIZON_YEARS))
    runs = [fleet_run(clock, preset, trials, s, tally) for s in seeds]
    wall = sum(r[0] for r in runs)
    failures = sum(r[3] for r in runs)
    if failures == 0:
        raise BenchError("no failure sampled in %d trials" % (trials * len(runs)))
    # A trial's cost is that of its failures, whose number is random: over
    # a run's few hundred failures it varies by 5-15 % from seed to seed,
    # which would swamp trials/s. Time per simulated failure does not.
    per_failure_ms = [r[0] * 1e3 / r[3] for r in runs if r[3] > 0]
    label, tail_ms, n = benchlib.tail(per_failure_ms)
    say("%s: %s, %d runs of %d trials, %s-year horizon, %d failures"
        % (workload, preset, len(runs), trials, FLEET_HORIZON_YEARS, failures))
    say("  trials_per_s %.1f 1/s, failures_per_s %.2f 1/s, ms per failure "
        "%.3f (median of %d; %s %.3f)"
        % (trials * len(runs) / wall, failures / wall,
           statistics.median(per_failure_ms), n, label, tail_ms))
    return {
        "setup_s": setup,
        "peak_heap_mib": statistics.median(benchlib.heap_mib(r[2]) for r in runs),
        "throughput_per_s": failures / wall,
        "latency_ms": statistics.median(per_failure_ms),
        "tail_ms": tail_ms,
    }


def fleet_traced(clock, workload, seed, seconds, tally):
    # The probe runs the binary's trials four more times (Fleet.run, then
    # trial by trial with spans off, on and off): a fifth of the time each.
    preset, seeds, trials = fleet_inputs(workload, seed, seconds / 5)
    runs = [fleet_run(clock, preset, trials, s, tally) for s in seeds]
    untraced = sum(r[0] for r in runs)
    ref_dir = os.path.join(OUT, "fleet-ref")
    os.makedirs(ref_dir, exist_ok=True)
    trace_out = os.path.join(OUT, "trace-%s.json" % workload)
    got, _, factor = clock.timed(lambda: probe_json(
        ["fleet-trace", preset, str(trials), FLEET_HORIZON_YEARS,
         ",".join(str(s) for s in seeds), ref_dir, trace_out]))
    for s, (_, out, _, _) in zip(seeds, runs):
        with open(os.path.join(ref_dir, "%d.json" % s)) as f:
            tally.check(f.read() == out,
                        "fleet --json differs from the in-process Fleet.run")
    layers = calibrated_layers(got["layers"], factor)
    parts = [layers["fleet.sample_s"], layers["fleet.execute_s"],
             layers["fleet.aggregate_s"]]
    layers["trace.closure"] = benchlib.closure(parts, untraced)
    layers["trace.overhead"] = got["overhead"]
    return layers, trace_out


# --- serve -------------------------------------------------------------


def http(port, method, path, body=b""):
    """One request on its own connection (the daemon closes after each).
    Returns (status, body bytes)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n"
                     % (method.encode(), path.encode(), len(body)) + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head[9:12]) if head.startswith(b"HTTP/1.1 ") else 0
    return status, payload


class Daemon:
    """`ssdep serve --port 0` as a child process, stopped with SIGTERM."""

    def __init__(self, workers, stderr_path):
        self.started = time.perf_counter()
        self.stderr = open(stderr_path, "w+")
        self.proc = subprocess.Popen(
            [BIN, "serve", "--port", "0", "--workers", str(workers)],
            env=child_env(), stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on http://127.0.0.1:"):
            self.stop()
            raise BenchError("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def wait_healthy(self, timeout=30):
        """Seconds from spawn to the first 200 on /healthz."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if http(self.port, "GET", "/healthz")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
        raise BenchError("daemon never answered /healthz")

    def stats(self):
        status, body = http(self.port, "GET", "/stats")
        if status != 200:
            raise BenchError("/stats answered %d" % status)
        return json.loads(body)

    def stop(self):
        """SIGTERM, wait, and return the runtime's exit statistics."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.seek(0)
        stats = benchlib.parse_exit_stats(self.stderr.read())
        self.stderr.close()
        return stats


def serve_inputs(seed, count):
    """The request bodies with their expected responses, and the seeded
    order of `count` requests over them."""
    serve_seed = benchlib.rng("serve", seed).getrandbits(62)
    cold = math.ceil(1.2 * COLD_SHARE * count)
    lines = probe(["serve-inputs", str(serve_seed), str(cold)] + EXAMPLES)
    requests = []
    for line in lines.splitlines():
        r = json.loads(line)
        requests.append((r["kind"], r["body"].encode(), r["expect"].encode()))
    hot = sum(1 for r in requests if r[0] == "hot")
    schedule = benchlib.request_schedule(
        benchlib.rng("serve-schedule", seed), hot, len(requests) - hot, count,
        COLD_SHARE)
    return serve_seed, cold, requests, schedule


def closed_loop(port, requests, schedule, clients, tally, spans=None):
    """`clients` connections, each sending its next request of the
    schedule when its last one completed. Returns the latencies (ms) of
    the successful requests."""
    lock = threading.Lock()
    position = [0]
    latencies = []

    def client():
        while True:
            with lock:
                i = position[0]
                if i >= len(schedule):
                    return
                position[0] = i + 1
            kind, body, expect = requests[schedule[i]]
            t0 = time.perf_counter_ns()
            try:
                status, payload = http(port, "POST", "/evaluate", body)
                ok = status == 200 and payload == expect
            except OSError:
                ok = False
            t1 = time.perf_counter_ns()
            with lock:
                if tally.check(ok, "request %d (%s) failed or differed" % (i, kind)):
                    latencies.append((t1 - t0) / 1e6)
                if spans is not None:
                    spans.append(("request." + kind, t0, t1, i))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies


def chunked_load(clock, port, requests, schedule, clients, tally):
    """The schedule in chunks of SERVE_CHUNK requests, each timed on the
    clock. Returns one (scaled latencies in ms, scaled seconds under load)
    per chunk."""
    chunks = []
    for i in range(0, len(schedule), SERVE_CHUNK):
        got, wall, factor = clock.timed(lambda: closed_loop(
            port, requests, schedule[i:i + SERVE_CHUNK], clients, tally))
        chunks.append(([ms * factor for ms in got], wall * factor))
    return chunks


def warm(daemon, requests, tally):
    """Every hot body once, untimed: the cache holds them before timing."""
    for kind, body, expect in requests:
        if kind == "hot":
            status, payload = http(daemon.port, "POST", "/evaluate", body)
            tally.check(status == 200 and payload == expect,
                        "warm-up request failed or differed")


def serve_setup(clock, workers):
    """Spawn to the first 200 on /healthz."""
    def once():
        d = Daemon(workers, os.path.join(OUT, "serve-setup.stderr"))
        try:
            return d.wait_healthy()
        finally:
            d.stop()
    return median_setup(clock, once)


def serve(clock, seed, seconds, tally):
    workers = os.cpu_count() or 1
    _, _, requests, schedule = serve_inputs(seed, round(SERVE_RPS * seconds))
    setup = serve_setup(clock, workers)
    # The schedule is split over SERVE_DAEMONS daemon lifetimes: one
    # daemon's peak heap swings by a fifth with how its domains' collections
    # happen to interleave, and the median of several much less.
    chunks, heaps = [], []
    part = math.ceil(len(schedule) / SERVE_DAEMONS)
    for i in range(0, len(schedule), part):
        d = Daemon(workers, os.path.join(OUT, "serve.stderr"))
        try:
            d.wait_healthy()
            warm(d, requests, tally)
            chunks += chunked_load(
                clock, d.port, requests, schedule[i:i + part], workers, tally)
        finally:
            heaps.append(benchlib.heap_mib(d.stop()))
    latencies = [ms for got, _ in chunks for ms in got]
    if len(latencies) < 1000:
        raise BenchError("only %d requests completed" % len(latencies))
    # Throughput and tail are medians over the chunks: a burst of other
    # tenants' work on the shared cores stalls the daemon's domains for
    # milliseconds and would otherwise move a whole run's figures.
    tails = [benchlib.tail(got) for got, _ in chunks]
    label, n = tails[0][0], min(t[2] for t in tails)
    tail_ms = statistics.median(t[1] for t in tails)
    rps = statistics.median(len(got) / elapsed for got, elapsed in chunks)
    say("serve: %d workers, %d closed-loop connections, %d requests over %d "
        "daemons in %d chunks" % (workers, workers, len(schedule), len(heaps),
                                  len(chunks)))
    say("  p50_ms %.4f ms, %s_ms %.4f ms (median over chunks of at least %d "
        "samples, highest resolved percentile p%.3f), rps %.1f 1/s"
        % (statistics.median(latencies), label, tail_ms, n,
           benchlib.highest_resolved_percentile(n), rps))
    return {
        "setup_s": setup,
        "peak_heap_mib": statistics.median(heaps),
        "throughput_per_s": rps,
        "latency_ms": statistics.median(latencies),
        "tail_ms": tail_ms,
    }


SERVE_COUNTERS = ["memo.hits", "memo.misses", "memo.evicted", "serve.rejected_busy"]


def stat_deltas(before, after, factor):
    """The change of the daemon's counters and request timer (its time
    scaled by `factor`) between two /stats snapshots."""
    deltas = {name: after.get(name, 0) - before.get(name, 0)
              for name in SERVE_COUNTERS}
    timer = "serve.request_seconds"
    for field, scale in (("count", 1), ("seconds", factor)):
        deltas[timer + "." + field] = (
            after[timer][field] - before[timer][field]) * scale
    return deltas


def serve_traced(clock, seed, seconds, tally):
    # The daemon under half the load, its requests recorded as spans; the
    # in-process replay of the request path (spans off, on, off) after it.
    workers = os.cpu_count() or 1
    serve_seed, cold, requests, schedule = serve_inputs(
        seed, round(SERVE_RPS * seconds / 2))
    spans = []
    d = Daemon(workers, os.path.join(OUT, "serve.stderr"))
    try:
        d.wait_healthy()
        warm(d, requests, tally)
        before = d.stats()
        latencies, _, load_factor = clock.timed(lambda: closed_loop(
            d.port, requests, schedule, workers, tally, spans))
        deltas = stat_deltas(before, d.stats(), load_factor)
    finally:
        exit_stats = d.stop()
    if not latencies:
        raise BenchError("no request completed")
    trace_out = os.path.join(OUT, "trace-serve.json")
    got, _, factor = clock.timed(lambda: probe_json(
        ["serve-trace", trace_out, str(serve_seed), str(cold)] + EXAMPLES))
    tally.check(got["mismatches"] == 0, "in-process replay differs")
    write_client_spans(trace_out, spans)
    layers = calibrated_layers(got["layers"], factor)
    handler_ms = (1e3 * deltas["serve.request_seconds.seconds"]
                  / max(1, deltas["serve.request_seconds.count"]))
    client_ms = statistics.mean(latencies) * load_factor
    hits, misses = deltas["memo.hits"], deltas["memo.misses"]
    kreq = len(latencies) / 1e3
    fingerprint_ms = layers.pop("design.fingerprint_ms")
    evaluate_ms = ((1 - COLD_SHARE) * layers["eval_cache.run_ms.hot"]
                   + COLD_SHARE * layers["eval_cache.run_ms.cold"])
    layers.update({
        "design.fingerprint_s": fingerprint_ms / 1e3,
        "serve.handler_ms": handler_ms,
        "serve.transport_ms": client_ms - handler_ms,
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "eval_cache.hit_ratio": hits / max(1, hits + misses),
        "eval_cache.evicted": deltas["memo.evicted"],
        "serve.rejected_busy": deltas["serve.rejected_busy"],
        "serve.gc.minor_per_kreq": exit_stats.get("minor_collections", 0) / kreq,
        "serve.gc.major_per_kreq": exit_stats.get("major_collections", 0) / kreq,
    })
    layers["trace.closure"] = benchlib.closure(
        [layers["spec.parse_ms"], fingerprint_ms, evaluate_ms,
         layers["json.encode_ms"], layers["serve.transport_ms"]], client_ms)
    layers["trace.overhead"] = got["overhead"]
    return layers, trace_out


def write_client_spans(trace_out, spans):
    """Appends the load generator's request spans (pid 2, request id in
    the args) to the probe's trace file."""
    with open(trace_out) as f:
        trace = json.load(f)
    base = min((s[1] for s in spans), default=0)
    for name, t0, t1, rid in spans:
        trace["traceEvents"].append({
            "name": name, "ph": "X", "pid": 2, "tid": 1,
            "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
            "args": {"rid": rid}})
    with open(trace_out, "w") as f:
        json.dump(trace, f)


# --- main --------------------------------------------------------------


UNTRACED = {"grid-sweep": grid_sweep, "serve": serve}
TRACED = {"grid-sweep": grid_sweep_traced, "serve": serve_traced}


def measure(workload, seed, seconds, trace, tally):
    """End-to-end metrics of the binary, or, traced, per-layer metrics of
    the in-process replay; both timed on the calibrated clock."""
    clock = Clock()
    if workload in FLEET:
        fn = fleet_traced if trace else fleet
        value = fn(clock, workload, seed, seconds, tally)
    else:
        value = (TRACED if trace else UNTRACED)[workload](clock, seed, seconds, tally)
    clock.report()
    return value


def result(metrics, names, tally):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in names},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        tally = Tally()
        if args.trace:
            layers, trace_out = measure(args.workload, args.seed, args.seconds,
                                        True, tally)
            for name, unit in PER_LAYER:
                if name in layers:
                    say("  %s %.6g %s" % (name, layers[name], unit))
            say("trace written to %s" % trace_out)
            out = result(layers, PER_LAYER, tally)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, False,
                              tally)
            for name, unit in END_TO_END:
                say("  %s %.6g %s" % (name, metrics[name], unit))
            out = result(metrics, END_TO_END, tally)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    for reason in tally.reasons:
        log("FAILED: %s" % reason)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
