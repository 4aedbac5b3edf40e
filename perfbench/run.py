#!/usr/bin/env python3
"""The repository benchmark: `audit` campaign workloads, timed from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The script builds the release `audit`
binary from source (into $CARGO_TARGET_DIR, default `.bench_build`),
runs the workload's campaigns through the binary's documented CLI for
about S seconds, checks every output, and prints one line per metric
followed by one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics. `--trace 1` runs one
campaign, then replays its journal through each layer's public
functions (the `tracer` package next to this file) and reports the
per-layer metrics. Metric names, units and directions live in
`BENCHMARK.json`; the workloads, seeds and the per-layer predictions in
`perfbench/layers.json`.

Each workload's seed reaches the program only as `--seed`. Load comes
from one process tree with at most two busy evaluators (closed loop:
each campaign starts when the previous one has exited). A campaign's
set-up ends when its journals hold `ga_start`; the rates are measured
over the GA phase that follows, so a seed's search length does not
weigh its fixed set-up in.

Every campaign is checked and counts as failed when any check fails:
every process exits 0; `audit journal fsck` calls each journal clean
and no `.wal` is left behind; the journal with `wall_s` stripped has the
same digest in every campaign of the run; fleet twins journal the same
bytes; the best droop is identical across campaigns and matches what
the CLI printed; on `solo`, resuming the journal cut after its last
generation reproduces it. A campaign that times out is torn down and
counts as failed, never as fast.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("solo", "serve-cascade", "fleet-twins")
DEFAULT_SEEDS = {"solo": 1, "serve-cascade": 2, "fleet-twins": 3}
DEFAULT_SECONDS = 25

# The run must end within 180 s; building is not counted.
RUN_LIMIT_S = 160.0
CAMPAIGN_TIMEOUT_S = 90.0
# Campaigns per run, at least: two are needed to compare digests.
MIN_CAMPAIGNS = 2
# Set-up probes per run on top of each campaign's own set-up.
SETUP_PROBES = 2
# A percentile is reported only with this many samples beyond it, so
# p75 needs 40 per-generation timings in a run.
MIN_BEYOND = 10
MIN_GEN_SAMPLES = 4 * MIN_BEYOND
POLL_S = 0.001
CLK_TCK = os.sysconf("SC_CLK_TCK")

E2E_UNITS = {
    "cand_per_s": "1/s",
    "sims_per_s": "1/s",
    "gen_ms_p50": "ms",
    "gen_ms_p75": "ms",
    "cpu_s_per_sim": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed for reading, not part of the JSON result (see
# perfbench/layers.json for why campaign_s and best_droop_mv are not).
INFO_UNITS = {
    "campaign_s": "s",
    "best_droop_mv": "mV",
    "gen_samples": "count",
    "failed_frac": "frac",
    "host_steal_frac": "frac",
}
LAYER_UNITS = {
    "core.harness.eval_ms": "ms",
    "core.harness.unattributed_frac": "frac",
    "cpu.chip.probe_ms": "ms",
    "pdn.transient.settle_ms": "ms",
    "cpu.chip.step_ns": "ns",
    "pdn.transient.step_ns": "ns",
    "measure.scope.sample_ns": "ns",
    "cpu.tier.estimate_us": "us",
    "core.ga.rank_us": "us",
    "core.ga.repair_us": "us",
    "core.ga.sim_ratio": "frac",
    "core.ga.cache_hit_ratio": "frac",
    "net.frame.roundtrip_us": "us",
    "net.frame.bytes": "bytes",
    "net.wal.append_us": "us",
    "net.broker.worker_idle_frac": "frac",
    "net.broker.redispatch_ratio": "ratio",
    "fleet.cache_hit_ratio": "frac",
    "fleet.scheduler.next_ns": "ns",
    "core.journal.append_ms": "ms",
    "core.journal.append_ms_last": "ms",
    "core.journal.bytes_per_run": "bytes",
    "core.journal.load_ms": "ms",
    "trace.coverage_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


# ---- pure helpers (unit-tested in test_run.py) ---------------------------


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile `q` (0..1] of `samples`, or None when fewer
    than `min_beyond` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def strip_wall(value):
    """A copy of a decoded journal record without any `wall_s` key."""
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k != "wall_s"}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def parse_journal(text):
    """Decoded records of an NDJSON journal; raises ValueError on a bad line."""
    records = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ValueError(f"line {n}: {e}") from None
    return records


def journal_digest(records):
    """SHA-256 of the records with `wall_s` stripped, in canonical form."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps(strip_wall(r), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def generations(records):
    return [r for r in records if r.get("kind") == "generation"]


def best_droop_mv(records):
    """Best finite droop score of the search, in mV. A Pareto search can
    drop its best-droop genome from later populations, so every
    generation counts."""
    # A journaled score is a number or one of the strings inf/-inf/nan.
    finite = [
        s for g in generations(records) for s in map(float, g["scores"]) if math.isfinite(s)
    ]
    return max(finite) * 1e3 if finite else None


def cut_after_last_generation(text):
    """The journal's lines up to and including its last `generation` record."""
    lines = text.splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if json.loads(line).get("kind") == "generation")
    return "".join(lines[: last + 1])


def cpu_ticks():
    """(busy, steal) clock ticks of all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        user, nice, system, idle, iowait, irq, softirq, steal = map(int, f.readline().split()[1:9])
    return user + nice + system + irq + softirq, steal


def has_ga_start(path):
    """True once the journal at `path` holds its `ga_start` record."""
    try:
        with open(path, "rb") as f:
            head = f.read(1 << 16)
    except FileNotFoundError:
        return False
    return b'{"kind":"ga_start"' in head


def parse_scrape(text):
    """Unlabelled samples of a metrics scrape, as name -> number."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "{" in line:
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def printed_droop_mv(stdout):
    """Best droop the CLI printed, in mV, with the digits it printed."""
    for line in stdout.splitlines():
        s = line.strip()
        if s.startswith("best droop") and ":" in s and s.endswith("mV"):
            return float(s.split(":", 1)[1].split()[0]), 1
        if "finished: best droop" in s:
            volts = s.split("best droop", 1)[1].split()[0]
            return float(volts) * 1e3, 3
    return None


# ---- processes ------------------------------------------------------------


class Proc:
    """A child in its own process group; stdout is captured line by line
    with arrival times, and the exit is reaped with its resource usage."""

    def __init__(self, argv, cwd, log):
        with open(log, "ab") as err:
            self.p = subprocess.Popen(
                argv,
                cwd=cwd,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                start_new_session=True,
            )
        self.lines = []
        self.code = None
        self.t_end = None
        self.rusage = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._waiter = threading.Thread(target=self._wait, daemon=True)
        self._reader.start()
        self._waiter.start()

    def _read(self):
        for raw in self.p.stdout:
            self.lines.append((time.perf_counter(), raw.decode(errors="replace")))
        self.p.stdout.close()

    def _wait(self):
        _, status, ru = os.wait4(self.p.pid, 0)
        self.t_end = time.perf_counter()
        self.rusage = ru
        self.code = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.code

    def done(self):
        return not self._waiter.is_alive()

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime if self.rusage else 0.0

    def cpu_now(self):
        """User+sys seconds so far, all threads, read while it runs."""
        try:
            with open(f"/proc/{self.p.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            return self.cpu_s()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def rss_kb(self):
        return self.rusage.ru_maxrss if self.rusage else 0

    def stdout(self):
        return "".join(line for _, line in self.lines)

    def line_time(self, prefix):
        for t, line in self.lines:
            if line.startswith(prefix):
                return t
        return None

    def kill(self):
        if not self.done():
            try:
                os.killpg(self.p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def join(self):
        self._waiter.join()
        self._reader.join()


class Campaign:
    """What one campaign did, and whether it passed its checks."""

    def __init__(self, index):
        self.index = index
        self.failures = []
        self.procs = []
        self.journals = {}
        self.t0 = None
        self.wall = None
        self.setup = None
        self.scrape = {}
        self.records = {}
        self.addr = None
        self.t_ga = None
        self.cpu_at_ga = 0.0
        self.best = None

    def fail(self, why):
        self.failures.append(why)

    @property
    def ok(self):
        return not self.failures


class Runner:
    def __init__(self, args, audit, rundir):
        self.workload = args.workload
        self.seed = str(args.seed)
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.audit = audit
        self.dir = rundir
        self.log = os.path.join(rundir, "stderr.log")
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.live = []
        self.setups = []

    # -- process plumbing --

    def spawn(self, *argv):
        proc = Proc([self.audit, *argv], self.dir, self.log)
        self.live.append(proc)
        return proc

    def teardown(self, procs=None):
        for proc in procs if procs is not None else self.live:
            proc.kill()
        for proc in procs if procs is not None else self.live:
            proc.join()

    def wait_until(self, cond, procs, limit):
        """Polls `cond()` until true; False if a process exits non-zero
        first or `limit` passes."""
        while not cond():
            if time.perf_counter() > limit:
                return False
            if any(p.done() and p.code != 0 for p in procs):
                return False
            time.sleep(POLL_S)
        return True

    def campaign_limit(self):
        return min(time.perf_counter() + CAMPAIGN_TIMEOUT_S, self.deadline)

    def finish(self, c, procs, limit):
        """Waits for every process; a timeout tears the group down."""
        c.procs = procs
        while not all(p.done() for p in procs):
            if time.perf_counter() > limit:
                self.teardown(procs)
                c.fail("timed out and torn down")
                break
            time.sleep(0.002)
        for p in procs:
            p.join()
            if p.code != 0:
                c.fail(f"`{' '.join(p.p.args[1:3])}` exited {p.code}")
        c.wall = max(p.t_end for p in procs) - c.t0

    def scrape(self, addr):
        try:
            out = subprocess.run(
                [self.audit, "fleet", "metrics", "--connect", addr],
                cwd=self.dir,
                capture_output=True,
                timeout=5,
            )
        except subprocess.TimeoutExpired:
            return None
        return parse_scrape(out.stdout.decode()) if out.returncode == 0 else None

    def start_workers(self, server, addr, banner, limit):
        """Two `audit work` processes, started once the server is listening."""
        if not self.wait_until(lambda: server.line_time(banner) is not None, [server], limit):
            return []
        return [self.spawn("work", "--connect", addr) for _ in range(2)]

    def poll_scrapes(self, c, addr, procs, stop):
        while not stop.is_set() and not all(p.done() for p in procs):
            s = self.scrape(addr)
            if s:
                c.scrape = s
            stop.wait(0.25)

    # -- campaigns --

    def launch(self, c, procs, journals, limit, probe):
        """Set-up ends when every journal holds its `ga_start`: the GA
        phase, which the rates are measured over, starts there. A probe
        is torn down at that point; a campaign runs to its end."""
        paths = [os.path.join(self.dir, j) for j in journals]
        if self.wait_until(lambda: all(map(has_ga_start, paths)), procs, limit):
            c.t_ga = time.perf_counter()
            c.setup = c.t_ga - c.t0
            c.cpu_at_ga = sum(p.cpu_now() for p in procs)
        if probe:
            self.teardown(procs)
            for f in os.listdir(self.dir):
                if any(f.startswith(j) for j in journals):
                    os.remove(os.path.join(self.dir, f))
            return
        c.journals = dict(zip(("main",) if len(paths) == 1 else ("a", "b"), paths))
        stop = threading.Event()
        poller = None
        if self.trace and c.addr:
            poller = threading.Thread(target=self.poll_scrapes, args=(c, c.addr, procs, stop))
            poller.start()
        self.finish(c, procs, limit)
        stop.set()
        if poller:
            poller.join()
        if c.t_ga is None and c.ok:
            c.fail("no ga_start record observed")

    def solo(self, c, probe=False):
        j = f"solo-{c.index}.ndjson"
        limit = self.campaign_limit()
        c.t0 = time.perf_counter()
        p = self.spawn("generate", "--workers", "2", "--seed", self.seed, "--checkpoint", j)
        self.launch(c, [p], [j], limit, probe)

    def serve_cascade(self, c, probe=False):
        j = f"cascade-{c.index}.ndjson"
        c.addr = f"unix:b{c.index}.sock"
        limit = self.campaign_limit()
        c.t0 = time.perf_counter()
        server = self.spawn(
            "serve", "--seed", self.seed,
            "--fast-tier-budget", "6", "--objective", "droop,margin", "--lint-repair",
            "--listen", c.addr, "--min-workers", "2", "--checkpoint", j,
        )
        workers = self.start_workers(server, c.addr, "broker listening", limit)
        self.launch(c, [server, *workers], [j], limit, probe)

    def fleet_twins(self, c, probe=False):
        c.addr = f"unix:f{c.index}.sock"
        limit = self.campaign_limit()
        c.t0 = time.perf_counter()
        server = self.spawn(
            "fleet", "serve", "--listen", c.addr, "--min-workers", "2", "--campaigns", "2"
        )
        procs = [server, *self.start_workers(server, c.addr, "fleet listening", limit)]
        twins = [f"twin-{c.index}{t}.ndjson" for t in ("a", "b")]
        if len(procs) == 3:
            procs += [
                self.spawn("fleet", "submit", "--connect", c.addr, "--seed", self.seed, "--checkpoint", j)
                for j in twins
            ]
        self.launch(c, procs, twins, limit, probe)

    def run_one(self, index, probe=False):
        c = Campaign(index)
        {
            "solo": self.solo,
            "serve-cascade": self.serve_cascade,
            "fleet-twins": self.fleet_twins,
        }[self.workload](c, probe=probe)
        if c.setup is not None:
            self.setups.append(c.setup)
        self.live = [p for p in self.live if not p.done()]
        return c

    def gen_samples(self, c):
        """Per-generation timings a campaign contributes."""
        n = 0
        for path in c.journals.values():
            if os.path.exists(path):
                with open(path) as f:
                    n += sum(1 for line in f if line.startswith('{"kind":"generation"'))
        return n

    # -- checks --

    def fsck_failures(self, path):
        name = os.path.basename(path)
        if not os.path.exists(path):
            return [f"{name} missing"]
        out = subprocess.run(
            [self.audit, "journal", "fsck", path], cwd=self.dir, capture_output=True, timeout=30
        )
        head = (out.stdout.decode() or out.stderr.decode()).strip().splitlines()[:1]
        failures = []
        if out.returncode != 0 or not head or not head[0].endswith(": clean"):
            failures.append(f"fsck {name} exited {out.returncode}: {head}")
        if os.path.exists(path + ".wal"):
            failures.append(f"{name}.wal left behind")
        return failures

    def resume_failures(self, original, cut):
        """Why `audit generate --resume` of the journal text `cut` does
        not reproduce the uninterrupted journal text `original`."""
        path = os.path.join(self.dir, "resume.ndjson")
        with open(path, "w") as f:
            f.write(cut)
        c = Campaign("resume")
        limit = self.campaign_limit()
        c.t0 = time.perf_counter()
        self.finish(c, [self.spawn("generate", "--resume", "resume.ndjson")], limit)
        if c.ok:
            c.failures += self.fsck_failures(path)
        if c.ok:
            with open(path) as f:
                try:
                    resumed = parse_journal(f.read())
                except ValueError as e:
                    return [f"resumed journal: {e}"]
            if journal_digest(resumed) != journal_digest(parse_journal(original)):
                c.fail("resumed journal differs from the uninterrupted one")
        return [f"resume: {why}" for why in c.failures]

    def check(self, campaigns):
        digests = {}
        droops = []
        for c in campaigns:
            if not c.ok:
                continue
            for role, path in c.journals.items():
                c.failures += self.fsck_failures(path)
                if not c.ok:
                    break
                with open(path) as f:
                    try:
                        c.records[role] = parse_journal(f.read())
                    except ValueError as e:
                        c.fail(f"{role} journal: {e}")
                        break
            if not c.ok:
                continue
            mine = {role: journal_digest(r) for role, r in c.records.items()}
            if len(set(mine.values())) > 1:
                c.fail("twin journals differ")
            for role, d in mine.items():
                if digests.setdefault(role, d) != d:
                    c.fail(f"{role} journal digest differs from the run's first campaign")
            best = best_droop_mv(c.records[next(iter(c.records))])
            if best is None:
                c.fail("journal has no finite score")
                continue
            for p in c.procs:
                printed = printed_droop_mv(p.stdout())
                if printed and abs(best - printed[0]) > 0.5 * 10 ** -printed[1] + 1e-9:
                    c.fail(f"printed best droop {printed[0]} mV, journal says {best} mV")
            c.best = best
            droops.append(best)
        for c in campaigns:
            if c.ok and c.best != droops[0]:
                c.fail("best droop differs across campaigns")

    # -- metrics --

    def work(self, c):
        """(candidates, simulations, generation records) of a campaign."""
        gens = [g for r in c.records.values() for g in generations(r)]
        cands = sum(len(g["population"]) for g in gens)
        sims = sum(g["executed"] for g in gens)
        return cands, sims, gens

    def e2e(self, good):
        cand_rates, sim_rates, cpu_per_sim, gen_ms, walls = [], [], [], [], []
        for c in good:
            cands, sims, gens = self.work(c)
            ga_s = max(p.t_end for p in c.procs) - c.t_ga
            cpu = sum(p.cpu_s() for p in c.procs) - c.cpu_at_ga
            cand_rates.append(cands / ga_s)
            sim_rates.append(sims / ga_s)
            cpu_per_sim.append(cpu / sims)
            walls.append(c.wall)
            gen_ms.extend(g["wall_s"] * 1e3 for g in gens)
        metrics = {
            "cand_per_s": statistics.median(cand_rates),
            "sims_per_s": statistics.median(sim_rates),
            "gen_ms_p50": percentile(gen_ms, 0.50),
            "gen_ms_p75": percentile(gen_ms, 0.75),
            "cpu_s_per_sim": statistics.median(cpu_per_sim),
            "peak_rss_mb": max(p.rss_kb() for c in good for p in c.procs) / 1024,
            "setup_s": statistics.median(self.setups) if self.setups else None,
        }
        info = {
            "campaign_s": statistics.median(walls),
            "best_droop_mv": good[0].best,
            "gen_samples": len(gen_ms),
        }
        return metrics, info

    def layers(self, c, tracer):
        role = next(iter(c.records))
        scratch = os.path.join(self.dir, "tracer")
        campaigns = len(c.records) if self.workload == "fleet-twins" else 1
        out = subprocess.run(
            [tracer, c.journals[role], scratch, str(campaigns)],
            cwd=self.dir, capture_output=True, timeout=120,
        )
        if out.returncode != 0:
            c.fail(f"tracer exited {out.returncode}: {out.stderr.decode().strip()[-300:]}")
            return None
        report = json.loads(out.stdout.decode().splitlines()[-1])
        with open(os.path.join(self.dir, "spans.json"), "w") as f:
            json.dump(report["spans"], f, indent=1)
        if report["split_mismatches"]:
            c.fail("traced harness split does not reproduce the harness result")
        if not report["journal_rewrite_identical"]:
            c.fail("journal rewritten through JournalWriter differs from the original")
        m = dict(report["metrics"])
        cands, sims, gens = self.work(c)
        hits = sum(g["cache_hits"] for g in gens)
        m["core.ga.sim_ratio"] = sims / cands
        m["core.ga.cache_hit_ratio"] = hits / cands
        workers = [p for p in c.procs if p.p.args[1] == "work"]
        ga_wall = max(sum(g["wall_s"] for g in generations(r)) for r in c.records.values())
        distributed = bool(workers)
        if distributed:
            m["net.broker.worker_idle_frac"] = 1 - sum(p.cpu_s() for p in workers) / (len(workers) * ga_wall)
        else:
            m["net.broker.worker_idle_frac"] = 0.0
        s = c.scrape
        fleet = self.workload == "fleet-twins"
        results = s.get("audit_fleet_results_total" if fleet else "audit_results_total", 0)
        dispatches = s.get("audit_fleet_dispatches_total" if fleet else "audit_dispatches_total", 0)
        m["net.broker.redispatch_ratio"] = dispatches / results if results else 0.0
        m["fleet.cache_hit_ratio"] = s.get("audit_fleet_cache_hits_total", 0) / results if fleet and results else 0.0

        # Σ(per-call time × calls in this campaign) over campaign CPU.
        spans = report["spans"]
        per_call = {k: v["busy_s"] / v["calls"] for k, v in spans.items() if v["calls"]}
        first = c.records[role]
        cfg = next((r["cfg"] for r in first if r.get("kind") == "ga_start"), {})
        pareto = any(r.get("kind") == "pareto_front" for r in first)
        appended = sum(len(r) for r in c.records.values())
        # Journals count a fleet cache answer as an evaluation; only the
        # rest reached a simulator.
        simulated = sims - s.get("audit_fleet_cache_hits_total", 0)
        calls = {
            "core.harness.eval": simulated,
            "cpu.tier.estimate": cands if cfg.get("fast_tier_budget") else 0,
            "core.ga.rank": len(gens) if pareto else 0,
            "core.ga.repair": cands if cfg.get("lint_repair") else 0,
            "net.frame.roundtrip": sims if distributed else 0,
            "net.wal.append": 2 * sims if distributed else 0,
            "core.journal.append": appended,
        }
        explained = sum(per_call.get(k, 0.0) * n for k, n in calls.items())
        cpu = sum(p.cpu_s() for p in c.procs)
        m["trace.coverage_frac"] = explained / cpu if cpu else 0.0
        return m


# ---- build and main -------------------------------------------------------


def build(target_dir, trace):
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError(f"no audit sources under {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmds = [["cargo", "build", "--release", "--offline", "-p", "audit-cli", "--bin", "audit"]]
    if trace:
        cmds.append(
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(HERE, "tracer", "Cargo.toml")]
        )
    for cmd in cmds:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if out.returncode != 0:
            sys.stderr.write(out.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "audit"), os.path.join(release, "audit-perfbench-tracer")


def measure(runner, tracer):
    for i in range(0 if runner.trace else SETUP_PROBES):
        runner.run_one(100 + i, probe=True)
    campaigns = []
    start = time.perf_counter()
    while True:
        c = runner.run_one(len(campaigns))
        campaigns.append(c)
        if runner.trace:
            break
        elapsed = time.perf_counter() - start
        last = c.wall or CAMPAIGN_TIMEOUT_S
        if time.perf_counter() + 2 * last + 5 > runner.deadline:
            break
        samples = sum(runner.gen_samples(c) for c in campaigns)
        if (
            elapsed >= runner.seconds
            and len(campaigns) >= MIN_CAMPAIGNS
            and samples >= MIN_GEN_SAMPLES
        ):
            break
    runner.check(campaigns)
    good = [c for c in campaigns if c.ok]
    if runner.workload == "solo" and good:
        # The read side of the journal: resuming solo's journal, cut
        # after its last generation, must replay it exactly.
        with open(good[0].journals["main"]) as f:
            text = f.read()
        good[0].failures += runner.resume_failures(text, cut_after_last_generation(text))
        good = [c for c in campaigns if c.ok]
    metrics, info = {}, {}
    if good:
        if runner.trace:
            m = runner.layers(good[-1], tracer)
            if m is not None and good[-1].ok:
                metrics = {k: m[k] for k in LAYER_UNITS}
        else:
            metrics, info = runner.e2e(good)
    return campaigns, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        audit, tracer = build(target_dir, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    runner = Runner(args, audit, rundir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ticks0 = cpu_ticks()
    try:
        campaigns, metrics, info = measure(runner, tracer)
    finally:
        runner.teardown()
        failed_log = ""
        if os.path.exists(runner.log):
            with open(runner.log, errors="replace") as f:
                failed_log = f.read()[-2000:]
        shutil.rmtree(rundir, ignore_errors=True)

    failed = sum(1 for c in campaigns if not c.ok)
    for c in campaigns:
        for why in c.failures:
            print(f"perfbench: campaign {c.index} failed: {why}", file=sys.stderr)
    if failed and failed_log:
        sys.stderr.write(failed_log)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    missing = [k for k in units if metrics.get(k) is None]
    correct = failed == 0 and not missing
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    info["failed_frac"] = failed / len(campaigns)
    # Time the hypervisor ran other guests while this one wanted a CPU:
    # it slows every wall-clock metric of the run alike.
    busy, steal = (b - a for a, b in zip(ticks0, cpu_ticks()))
    info["host_steal_frac"] = steal / (busy + steal) if busy + steal else 0.0
    print(f"workload {args.workload}  seed {args.seed}  campaigns {len(campaigns)}  failed {failed}")
    for name, value in [*metrics.items(), *info.items()]:
        unit = units.get(name) or INFO_UNITS[name]
        print(f"  {name:32} {value!r:>24} {unit}")
    result = {
        "correct": correct,
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if v is not None},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
