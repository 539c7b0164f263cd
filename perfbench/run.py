#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the `accvv` program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--repeats 10] [--seconds S] [--workloads a,b]
    python3 perfbench/run.py --regen-oracle

With `--trace 0` the run drives the release `accvv` binary and prints the
end-to-end metrics of BENCHMARK.json: set-up time, the program's CPU time
per op (scaled by a calibration loop timed on the same CPU to a reference
CPU speed) and its peak RSS. With `--trace 1` it runs the same
workload untraced for half the time, then replays the ops it completed in
the traced in-process replay (perfbench/tracer) for the other half, and
prints the per-layer metrics. Every op's output is checked against the
digests in perfbench/oracle.json, which the tree-walking oracle
(`--exec-mode walk --no-cache`) produced. The last stdout line is the
result as JSON; the lines before it give every metric with its unit and
sample count, and the machine class.

Workloads (the seed picks the ops; `accvv` only sees the generated ops):
  campaign_cold    one fresh `accvv campaign --vendor V` process per op,
                   vendors cycling through CAPS, PGI and Cray in seeded order.
  release_oneshot  one fresh `accvv run --vendor V --version X [--lang L]
                   --jobs 1 --journal J --out O` process per op, drawn from
                   the 24 releases plus the reference, in seeded rounds.
  serve_mixed      `accvv serve --jobs 1`, a closed loop of two clients
                   (tenants a and b) posting whole-release submissions, one
                   in four of them a repeat of an earlier spec of its round;
                   a fresh server and store for every round of 100 ops.

One-shot ops and the server run pinned to one CPU, so `accvv` takes its
serial path and the numbers measure the program, not the scheduler of a
shared machine.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ORACLE = BENCH / "oracle.json"
WORKLOADS = ("campaign_cold", "release_oneshot", "serve_mixed")
TRACER_WORKLOAD = {"campaign_cold": "campaign", "release_oneshot": "run", "serve_mixed": "serve"}

RELEASES = {
    "CAPS": ["3.0.7", "3.0.8", "3.1.0", "3.2.3", "3.2.4", "3.3.0", "3.3.3", "3.3.4"],
    "PGI": ["12.6", "12.8", "12.9", "12.10", "13.2", "13.4", "13.6", "13.8"],
    "Cray": ["8.1.2", "8.1.3", "8.1.4", "8.1.5", "8.1.6", "8.1.7", "8.1.8", "8.2.0"],
    "Reference": ["1.0.0"],
}
LANGS = ("c", "fortran", "both")
SETUPS = 9  # set-up repetitions per timed run; setup_s is their median
# The calibration loop: fixed pure-Python work, timed in thread CPU time on
# the CPU the program runs on, before every one-shot op and every
# CAL_EVERY_S during a serve round. Other tenants of a shared host slow that
# CPU by up to a fifth for minutes at a time, and the loop slows with the
# program; op_cpu_ms is the program's CPU time scaled by CAL_REF_MS (the
# loop's time on a quiet 2-vCPU Intel Xeon VM) over the loop's time beside it.
CAL_LOOP = 25_000
CAL_REF_MS = 1.8
CAL_EVERY_S = 0.1
# The warm-up op of every set-up, the same for every seed so that setup_s
# does not depend on which vendor a seed deals first.
WARMUP = {
    "campaign_cold": "PGI",
    "release_oneshot": ("PGI", "13.8", "both"),
    "serve_mixed": ("PGI", "13.8", "both"),
}
# A server gets slower and bigger with every stored submission (its store
# reads scan the whole store), so serve_mixed runs rounds of this many ops,
# each on a fresh server and store: every run then measures the same mix of
# store sizes however fast the host is. Peak RSS is read at a round's end.
ROUND_OPS = 100
REPEAT_EVERY = 4  # every 4th served submission repeats an earlier spec of its round
READS_EVERY = 5  # each serve client GETs query, history and healthz after every 5th op
ROUND = "round"  # marks the start of a serve_mixed round in the ops the replay gets
OP_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- inputs


def campaign_ops(seed):
    rng = random.Random(seed)
    while True:
        cycle = ["CAPS", "PGI", "Cray"]
        rng.shuffle(cycle)
        yield from cycle


def release_ops(seed):
    rng = random.Random(seed)
    deck = [(v, x, lang) for v, xs in RELEASES.items() for x in xs for lang in LANGS]
    while True:
        rng.shuffle(deck)
        yield from deck


def serve_rounds(seed):
    """Each round's ROUND_OPS whole-release submission specs (vendor,
    version, lang), dealt like release_oneshot's ops; every REPEAT_EVERY-th
    repeats an earlier spec of the round, so the cache, the run memo and
    dedup get hits."""
    rng = random.Random(seed)
    fresh = release_ops(seed + 1)
    while True:
        seen, specs = [], []
        for i in range(1, ROUND_OPS + 1):
            if i % REPEAT_EVERY == 0:
                specs.append(rng.choice(seen))
            else:
                seen.append(next(fresh))
                specs.append(seen[-1])
        yield specs


def oracle_key(workload, op):
    if workload == "campaign_cold":
        return f"campaign {op}"
    if workload == "release_oneshot":
        return "run " + " ".join(op)
    return "serve " + " ".join(op)


def submit_body(spec, tenant):
    v, x, lang = spec
    body = {"tenant": tenant, "vendor": v.lower(), "version": x}
    if lang != "both":
        body["lang"] = lang
    return json.dumps(body, separators=(",", ":"))


# ---------------------------------------------------------------- build


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the release `accvv` and the tracer; both are quick no-ops
    once built."""
    if not (Path("Cargo.toml").is_file() and Path("crates").is_dir() and Path("src").is_dir()):
        fail("run from the root of a checkout of the repository (no Cargo.toml/crates/src here)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml",
         "-p", "openacc-vv", "--bin", "accvv"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(BENCH / "tracer" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    accvv = (target_dir() / "release" / "accvv").resolve()
    tracer = (target_dir() / "release" / "perfbench-trace").resolve()
    return accvv, tracer


def machine_class():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "profile": "release"}


def pin_one_cpu():
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------- helpers


def sha(data):
    return hashlib.sha256(data).hexdigest()


def quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def calibrate():
    """CPU milliseconds of the calibration loop on the calling thread."""
    t0 = time.thread_time_ns()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return (time.thread_time_ns() - t0) / 1e6


def spawn(argv, timeout=OP_TIMEOUT_S):
    """Run a child to completion; returns (stdout, exit status, seconds,
    rusage). The status is negative when a signal ended it."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return out, p.returncode, elapsed, usage


class Stats:
    def __init__(self):
        self.lat = []  # seconds, ok ops only
        self.attempted = 0
        self.failed = 0
        self.rss_kb = 0
        self.cpu_s = 0.0  # the program's CPU time (user + system) over the ok ops
        # op (one-shot) or round (serve) → [the program's CPU seconds, the
        # calibration ms beside it times the ops it covers]
        self.cpu_cal = {}
        self.cal_ms = []
        self.off_s = 0.0  # measured span spent calibrating and setting up rounds
        self.done_ops = []  # ops that completed and verified, in order
        self.extra = None  # serve_mixed: client-side timings
        self.shared = 0  # serve_mixed: the servers' dedup counters, summed

    def record(self, op, ok, seconds, cpu_s, cal_ms):
        self.attempted += 1
        if ok:
            self.lat.append(seconds)
            self.cpu_s += cpu_s
            pair = self.cpu_cal.setdefault(op, [0.0, 0.0])
            pair[0] += cpu_s
            pair[1] += cal_ms
            self.done_ops.append(op)
        else:
            self.failed += 1


# ---------------------------------------------------------------- one-shot workloads


class OneShot:
    """campaign_cold and release_oneshot: one fresh process per op."""

    def __init__(self, workload, accvv, oracle, work):
        self.workload = workload
        self.accvv = str(accvv)
        self.oracle = oracle
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def ops(self, seed):
        return campaign_ops(seed) if self.workload == "campaign_cold" else release_ops(seed)

    def run_op(self, op):
        """Returns (ok, seconds, rusage)."""
        if self.workload == "campaign_cold":
            out, status, secs, ru = spawn([self.accvv, "campaign", "--vendor", op.lower()])
            return status >= 0 and sha(out) == self.oracle[oracle_key(self.workload, op)], secs, ru
        v, x, lang = op
        report = self.work / "op.txt"
        journal = self.work / "op.j1"
        argv = [self.accvv, "run", "--vendor", v.lower(), "--version", x, "--jobs", "1",
                "--journal", str(journal), "--out", str(report)]
        if lang != "both":
            argv[6:6] = ["--lang", lang]
        out, status, secs, ru = spawn(argv)
        journal.unlink(missing_ok=True)
        try:
            digest = sha(report.read_bytes() + b"\0" + out)
        except OSError:
            digest = None
        report.unlink(missing_ok=True)
        # `accvv run` exits 1 by design on buggy releases: only a signal,
        # a missing report or wrong bytes fail the op.
        return status >= 0 and digest == self.oracle[oracle_key(self.workload, op)], secs, ru

    def setup(self):
        """A fresh process has nothing to set up but itself: one warm-up op."""
        t0 = time.perf_counter()
        ok, _, _ = self.run_op(WARMUP[self.workload])
        if not ok:
            fail("warm-up op failed")
        return time.perf_counter() - t0

    def measure(self, seed, seconds):
        st = Stats()
        gen = self.ops(seed)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            op = next(gen)
            c0 = time.perf_counter()
            cal = calibrate()
            st.cal_ms.append(cal)
            st.off_s += time.perf_counter() - c0
            ok, secs, ru = self.run_op(op)
            st.record(op, ok, secs, ru.ru_utime + ru.ru_stime, cal)
            st.rss_kb = max(st.rss_kb, ru.ru_maxrss)
        st.wall = time.perf_counter() - t0 - st.off_s
        return st

    def close(self):
        pass


# ---------------------------------------------------------------- serve workload


class Client:
    def __init__(self, port):
        self.port = port

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


class Serve:
    """serve_mixed: `accvv serve --jobs 1`, two closed-loop clients, a fresh
    server and store for every round of ROUND_OPS ops."""

    def __init__(self, accvv, oracle, work, cpu):
        self.accvv = str(accvv)
        self.oracle = oracle
        self.work = work
        self.cpu = cpu
        self.proc = None

    def start(self):
        store = self.work / "store"
        errlog = self.work / "serve.err"
        self.err = open(errlog, "wb")
        self.proc = subprocess.Popen(
            [self.accvv, "serve", "--addr", "127.0.0.1:0", "--jobs", "1", "--store", str(store)],
            stdout=subprocess.DEVNULL, stderr=self.err,
            preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
        deadline = time.perf_counter() + 30
        port = None
        while port is None:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                fail("accvv serve did not start")
            # The server may be part-way through writing the line: only a
            # port followed by a space is whole.
            found = re.search(r"serving campaigns on http://127\.0\.0\.1:(\d+) ",
                              errlog.read_text(errors="replace"))
            if found:
                port = int(found[1])
            else:
                time.sleep(0.001)
        self.client = Client(port)
        while True:
            try:
                if self.client.request("GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                fail("accvv serve never answered /v1/healthz")
            time.sleep(0.001)

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if getattr(self, "err", None):
            self.err.close()
            self.err = None

    def run_op(self, spec, tenant, extra):
        """POST → poll status → GET report and verify. Returns (ok,
        seconds)."""
        c = self.client
        t0 = time.perf_counter()
        try:
            status, body = c.request("POST", "/v1/submit", submit_body(spec, tenant))
            extra["submit"].append(time.perf_counter() - t0)
            if status != 202:
                return False, 0.0
            sid = json.loads(body)["id"]
            while True:
                status, body = c.request("GET", f"/v1/status/{sid}")
                extra["polls"].append(1)
                if status != 200:
                    return False, 0.0
                state = json.loads(body)["state"]
                if state == "done":
                    break
                if state not in ("queued", "running") or time.perf_counter() - t0 > OP_TIMEOUT_S:
                    return False, 0.0
            status, report = c.request("GET", f"/v1/report/{sid}")
            ok = status == 200 and sha(report) == self.oracle[oracle_key("serve_mixed", spec)]
            return ok, time.perf_counter() - t0
        except (OSError, ValueError, KeyError):
            return False, 0.0

    def reads(self, vendor, extra):
        """The periodic store reads: /v1/query, /v1/history, /v1/healthz."""
        ok = True
        for path, key in ((f"/v1/query?scope={vendor}", "query"),
                          ("/v1/history?bucket=3600&by=profile", "query"),
                          ("/v1/healthz", "healthz")):
            t0 = time.perf_counter()
            try:
                status, _ = self.client.request("GET", path)
            except OSError:
                status = 0
            extra[key].append(time.perf_counter() - t0)
            ok &= status == 200
        return ok

    def setup(self):
        self.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        t0 = time.perf_counter()
        self.work.mkdir(parents=True)
        self.start()
        ok, _ = self.run_op(WARMUP["serve_mixed"], "warmup", {"submit": [], "polls": []})
        if not ok:
            self.stop()
            fail("warm-up submission failed")
        return time.perf_counter() - t0

    def measure(self, seed, seconds):
        """Rounds of ROUND_OPS ops, each but the first on a fresh server
        (the first uses the one the last set-up left), until `seconds` have
        passed; the round under way then is finished."""
        st = Stats()
        st.extra = {"submit": [], "polls": [], "query": [], "healthz": []}
        rss = []
        rounds = serve_rounds(seed)
        t0 = time.perf_counter()
        while not rss or time.perf_counter() - t0 < seconds:
            c0 = time.perf_counter()
            if rss:
                self.setup()
            cpu0, ok0 = self.cpu_s(), len(st.lat)
            st.off_s += time.perf_counter() - c0
            cal = self.round(next(rounds), st)
            st.cal_ms.append(cal)
            cpu = self.cpu_s() - cpu0
            st.cpu_s += cpu
            st.cpu_cal[len(rss)] = [cpu, cal * (len(st.lat) - ok0)]
            rss.append(self.peak_rss_kb())
            try:
                status, body = self.client.request("GET", "/v1/healthz")
                st.shared += json.loads(body)["shared"] if status == 200 else 0
            except (OSError, ValueError, KeyError):
                pass
        st.wall = time.perf_counter() - t0 - st.off_s
        st.rss_kb = statistics.median(rss)
        st.done_ops = [op for op in st.done_ops if op is not None]
        return st

    def round(self, specs, st):
        """Two closed-loop clients send the round's specs, in order, until
        none is left; returns the median calibration on the server's CPU
        meanwhile. A ROUND marker in `st.done_ops` starts the round."""
        lock = threading.Lock()
        specs = iter(specs)
        st.done_ops.append(ROUND)
        cal = []
        done = threading.Event()

        def sampler():
            os.sched_setaffinity(0, {self.cpu})  # this thread only
            while not done.wait(CAL_EVERY_S):
                cal.append(calibrate())

        def client(tenant):
            n = 0
            while True:
                with lock:
                    spec = next(specs, None)
                    if spec is None:
                        return
                    # POST order, which the traced replay follows
                    st.done_ops.append((spec, tenant))
                    slot = len(st.done_ops) - 1
                ok, secs = self.run_op(spec, tenant, st.extra)
                n += 1
                if ok and n % READS_EVERY == 0:
                    ok = self.reads(spec[0], st.extra)
                with lock:
                    st.attempted += 1
                    if ok:
                        st.lat.append(secs)
                    else:
                        st.failed += 1
                        st.done_ops[slot] = None

        cal_thread = threading.Thread(target=sampler)
        threads = [threading.Thread(target=client, args=(t,)) for t in ("a", "b")]
        for t in [cal_thread] + threads:
            t.start()
        for t in threads:
            t.join()
        done.set()
        cal_thread.join()
        return statistics.median(cal) if cal else calibrate()

    def cpu_s(self):
        """The server's CPU time so far, user + system, all its threads."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def close(self):
        self.stop()


# ---------------------------------------------------------------- metrics


def wall_metrics(st):
    """Op latency and throughput in wall time. The host's disk and CPU
    contention move these by more than the largest allowed bound from one
    run to the next, so they are reported with the layers, ungated."""
    lat_ms = [s * 1e3 for s in st.lat] + [math.inf] * st.failed
    n = len(lat_ms)
    return {
        "wall.op_p50_ms": (quantile(lat_ms, 0.5), "ms", n),
        "wall.op_p90_ms": (quantile(lat_ms, 0.9), "ms", n),
        "wall.ops_per_s": (len(st.lat) / st.wall, "1/s", n),
    }


def end_to_end(st, setups):
    n = len(st.lat)
    # CPU seconds per calibration millisecond, per distinct one-shot op (so
    # the share of each in a run's seeded draw does not move the figure)
    # or per serve round (a server's CPU time cannot be split by op; each
    # round deals every distinct spec once).
    ratios = [cpu / cal for cpu, cal in st.cpu_cal.values() if cal]
    if not ratios:
        fail("no op completed and verified")
    cpu_ms = statistics.fmean(ratios) * CAL_REF_MS * 1e3
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_cpu_ms": (cpu_ms, "ms", n),
        "peak_rss_mb": (st.rss_kb / 1024, "MB", n),
    }


# Spans the replay records inside an op; `core.case` sits inside
# `core.executor` on the executor paths and is measured there separately.
NOT_IN_OP = {"op", "server.run_submission", "harness.store_query", "harness.history"}


def per_layer(workload, st, trace):
    n = trace["ops"]
    selfs, counts, cache = trace["self_ms"], trace["counts"], trace["cache"]

    def per_op(name):
        return selfs.get(name, 0.0) / n

    def count(name):
        return counts.get(name, 0) / n

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    executor = workload != "campaign_cold"
    queries = counts.get("harness.store_queries", 0)
    in_op = sum(v for k, v in selfs.items() if k not in NOT_IN_OP
                and not (executor and k == "core.case")) / n
    lat_ms = [s * 1e3 for s in st.lat]
    mean_lat = statistics.fmean(lat_ms)
    m = {
        "testsuite.generate_ms": (per_op("testsuite.generate"), "ms"),
        "testsuite.render_ms": (per_op("testsuite.render"), "ms"),
        "frontend.parse_ms": (per_op("frontend.parse"), "ms"),
        "frontend.sema_ms": (per_op("frontend.sema"), "ms"),
        "frontend.resolve_ms": (per_op("frontend.resolve"), "ms"),
        "frontend.calls": (count("frontend.calls"), "count"),
        "compiler.cache_ms": (per_op("compiler.cache"), "ms"),
        "compiler.cache_drop_ms": (per_op("compiler.cache_drop"), "ms"),
        "compiler.lower_ms": (per_op("compiler.lower"), "ms"),
        "compiler.lower_calls": (count("compiler.lower_calls"), "count"),
        "compiler.bytecode_instrs": (count("compiler.bytecode_instrs"), "count"),
        "compiler.frontend_hit_ratio": (ratio(cache["frontend_hits"], cache["frontend_misses"]), "ratio"),
        "compiler.exec_hit_ratio": (ratio(cache["exec_hits"], cache["exec_misses"]), "ratio"),
        "compiler.exec_ms": (per_op("compiler.exec"), "ms"),
        "compiler.exec_calls": (count("compiler.exec_calls"), "count"),
        "compiler.cache_entries": (
            cache["entries"] if workload == "serve_mixed" else cache["entries"] / n, "count"),
        "device.kernels_launched": (count("device.kernels_launched"), "count"),
        "device.bytes_moved": (count("device.bytes_moved"), "count"),
        "device.statements_executed": (count("device.statements_executed"), "count"),
        "core.case_self_ms": (per_op("core.case"), "ms"),
        # An estimate: the executor's span less a separate warm re-run of its
        # cases, so it is floored at 0.
        "core.executor_self_ms": (
            max(0.0, per_op("core.executor") - per_op("core.case")) if executor else 0.0, "ms"),
        "core.journal_sync_ms": (per_op("core.journal_sync"), "ms"),
        "core.journal_fsyncs": (count("core.journal_fsyncs"), "count"),
        "core.report_render_ms": (per_op("core.report_render"), "ms"),
        "core.report_write_ms": (per_op("core.report_write"), "ms"),
        "core.report_bytes": (count("core.report_bytes"), "count"),
        "harness.store_append_ms": (per_op("harness.store_append"), "ms"),
        "harness.store_fsyncs": (count("harness.store_fsyncs"), "count"),
        "harness.store_query_ms": (
            selfs.get("harness.store_query", 0.0) / queries if queries else 0.0, "ms"),
        "harness.history_ms": (selfs.get("harness.history", 0.0) / queries if queries else 0.0, "ms"),
        "server.run_submission_ms": (per_op("server.run_submission"), "ms"),
        "trace.unattributed_ms": (per_op("op"), "ms"),
        "trace.coverage": (in_op / mean_lat, "ratio"),
        "trace.overhead_pct": (
            100 * (statistics.median(trace["op_ms"]) / statistics.median(trace["plain_ms"]) - 1), "%"),
    }
    # Measured by the clients of the live server; a one-shot workload has
    # no server, and reads 0 for these like for every layer it does not use.
    ex = st.extra
    m.update({
        "server.submit_ms": (statistics.median(ex["submit"]) * 1e3 if ex else 0.0, "ms"),
        "server.healthz_rtt_ms": (statistics.median(ex["healthz"]) * 1e3 if ex else 0.0, "ms"),
        "server.polls_per_op": (len(ex["polls"]) / st.attempted if ex else 0.0, "ratio"),
        "server.wait_ms": (mean_lat - per_op("server.run_submission") if ex else 0.0, "ms"),
        "server.shared": (st.shared, "count"),
        "server.query_p50_ms": (statistics.median(ex["query"]) * 1e3 if ex else 0.0, "ms"),
    })
    return dict(wall_metrics(st), **{k: (v, u, n) for k, (v, u) in m.items()})


# ---------------------------------------------------------------- runs


def run_traced(workload, tracer, oracle, st, seconds, cpu, work):
    """Replay the ops the untraced half completed, in order, in the tracer;
    returns its JSON and how many outputs missed their oracle digest."""
    if workload == "campaign_cold":
        lines, keys = st.done_ops, [oracle_key(workload, op) for op in st.done_ops]
    elif workload == "release_oneshot":
        lines = [" ".join(op) for op in st.done_ops]
        keys = [oracle_key(workload, op) for op in st.done_ops]
    else:
        lines = [op if op == ROUND else submit_body(*op) for op in st.done_ops]
        keys = [oracle_key(workload, op[0]) for op in st.done_ops if op != ROUND]
    ops_file = work / "trace-ops.txt"
    ops_file.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [str(tracer), TRACER_WORKLOAD[workload], str(ops_file), str(work / "trace"),
         str(seconds), str(READS_EVERY)],
        stdout=subprocess.PIPE, stderr=sys.stderr, timeout=seconds + 120,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        fail(f"tracer exited with {proc.returncode}")
    trace = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    mismatches = sum(1 for k, d in zip(keys, trace["digests"]) if oracle[k] != d)
    return trace, mismatches


def bench(args):
    accvv, tracer = build()
    try:
        oracle = json.loads(ORACLE.read_text())
    except (OSError, ValueError):
        fail(f"cannot read {ORACLE}")
    work = target_dir() / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    cpu = max(os.sched_getaffinity(0))
    if args.workload == "serve_mixed":
        w = Serve(accvv, oracle, work, cpu)
    else:
        cpu = pin_one_cpu()
        w = OneShot(args.workload, accvv, oracle, work)
    try:
        setups = [w.setup() for _ in range(SETUPS if not args.trace else 1)]
        seconds = args.seconds / 2 if args.trace else args.seconds
        st = w.measure(args.seed, seconds)
        w.close()
        if args.trace:
            trace, mismatches = run_traced(args.workload, tracer, oracle, st, seconds, cpu, work)
            metrics = per_layer(args.workload, st, trace)
            correct = (st.failed == 0 and mismatches == 0 and trace["mirror_ok"]
                       and trace["same_output"])
            attempted = st.attempted + trace["ops"]
            failed = st.failed + mismatches
        else:
            metrics = end_to_end(st, setups)
            correct = st.failed == 0
            attempted, failed = st.attempted, st.failed
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
    machine = dict(machine_class(), pinned_cpu=cpu)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"{'metric':32} {'value':>14} {'unit':6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32} {value:14.4f} {unit:6} {samples}")
    print(f"program CPU {st.cpu_s:.3f} s over {len(st.lat)} ok ops; wall {st.wall:.3f} s; "
          f"calibration median {statistics.median(st.cal_ms):.4f} ms (reference {CAL_REF_MS})")
    if args.trace and len(st.lat) < 100:
        print("note: wall.op_p90_ms has fewer than ten samples beyond it")
    if args.trace:
        print(f"trace: mirror_ok={trace['mirror_ok']} same_output={trace['same_output']} "
              f"oracle_mismatches={mismatches}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


# ---------------------------------------------------------------- oracle and steadiness


def regen_oracle():
    """Digest every op output any workload can produce, with the
    tree-walking oracle and no cache."""
    accvv, _ = build()
    oracle_flags = ["--exec-mode", "walk", "--no-cache"]
    out = {}
    tmp = target_dir() / "perfbench-oracle"
    tmp.mkdir(parents=True, exist_ok=True)
    report = tmp / "report.txt"

    def run(argv):
        report.unlink(missing_ok=True)
        res = subprocess.run([str(accvv)] + argv + oracle_flags, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        if res.returncode < 0:
            fail(f"oracle run crashed: {argv}")
        return res.stdout

    for v in ("CAPS", "PGI", "Cray"):
        out[oracle_key("campaign_cold", v)] = sha(run(["campaign", "--vendor", v.lower()]))
    for v, xs in RELEASES.items():
        for x in xs:
            for lang in LANGS:
                sel = [] if lang == "both" else ["--lang", lang]
                base = ["run", "--vendor", v.lower(), "--version", x] + sel + ["--out", str(report)]
                stdout = run(base)
                out[oracle_key("release_oneshot", (v, x, lang))] = sha(
                    report.read_bytes() + b"\0" + stdout)
                # A served report equals the one-shot report of its spec.
                out[oracle_key("serve_mixed", (v, x, lang))] = sha(report.read_bytes())
    shutil.rmtree(tmp, ignore_errors=True)
    ORACLE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {ORACLE}")


def steadiness(args):
    """Repeat each workload with distinct seeds; print each end-to-end
    metric's median and quartile spread against its bound. Exits 1 when a
    spread is over its bound, an op failed, or a run was not correct."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {"machine": machine_class(), "seconds": seconds, "workloads": {}}
    flagged = 0
    for wl in names:
        values = {}
        failed = 0
        for i in range(args.repeats):
            seed = args.first_seed + i
            res = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"], stdout=subprocess.PIPE)
            if res.returncode != 0:
                fail(f"{wl} seed {seed} exited with {res.returncode}")
            r = json.loads(res.stdout.decode().strip().splitlines()[-1])
            failed += r["failed"] + (0 if r["correct"] else 1)
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        rows = {}
        print(f"== {wl}: {args.repeats} runs of {seconds}s, failed ops {failed}")
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            over = spread > bounds[k]
            flagged += over
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[k],
                       "values": vs}
            mark = "OVER" if over else ("ok" if spread < bounds[k] / 3 else "ok (>1/3 bound)")
            print(f"  {k:14} median {med:12.4f}  spread {spread:7.4f}  bound {bounds[k]:.3f}  {mark}")
        summary["workloads"][wl] = {"failed": failed, "metrics": rows}
    out = target_dir() / "perfbench-steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out}")
    sys.exit(1 if flagged or any(w["failed"] for w in summary["workloads"].values()) else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--regen-oracle", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads")
    args = p.parse_args()
    if args.regen_oracle:
        regen_oracle()
    elif args.steadiness:
        steadiness(args)
    else:
        if not args.workload or not args.seconds:
            p.error("--workload and --seconds are required")
        bench(args)


if __name__ == "__main__":
    main()
