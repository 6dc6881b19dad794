"""Benchmark of the wreathbranch CLI and its verify sweeps.

Run from the root of a checkout:

    python3 perfbench/run.py --workload first_rule_deep --seed 0 \
        --seconds 25 --trace 0

Workloads (see ``workloads.py`` for the inputs):

* ``first_rule_deep`` / ``first_rule_wide``: a closed loop with one
  client.  Each request is a fresh ``python -m wreathbranch.cli
  branch-first ... --json`` process, so every request starts cold.
* ``sweep_warm`` / ``oracle_sweep``: a fresh worker process per pass
  runs a pinned family of ``verify`` suites; each suite call is one
  operation.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json`` and prints more; with ``--trace 1`` it runs a small
fixed family of operations once untraced and once traced
(``tracer.py``) and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object.  Every answer is checked, and a wrong or late answer
counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (FIRST_RULE_STRATA, REQUEST_CAP_S, SUITE_CAP_S,
                       SWEEP_SUITES, WORKLOADS, cycle_length, digest_key,
                       first_rule_requests)

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench" / "trace"

SETUP_SAMPLES = 9        # set-up is timed this many times; the median counts
HARD_LIMIT_S = 120.0     # no request starts later, so a run ends within 180 s
TRACE_PER_STRATUM = 2    # traced first-rule requests per stratum
TRACE_CAP_FACTOR = 2.0   # traced suites run slower, so their caps are wider
LAYERS = ("cli", "branching", "lr", "tableaux", "perms", "shapes", "verify")


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, cap):
    """Run argv to completion; return (seconds, stdout, exit code or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=cap)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = None
    return time.perf_counter() - t0, out, code


def children_usage():
    """(CPU seconds, peak RSS in MiB) over all children waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def measure_setup(workload, seed, env, samples):
    """Seconds from launching a workload process until its input is ready."""
    argv = [sys.executable, str(HERE / "worker.py"), "setup",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(samples + 1):     # the first launch only warms up
        t0 = time.monotonic()
        _, out, code = spawn(argv, env, 60)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} failed")
        times.append(float(out.decode().split()[-1]) - t0)
    return times[1:]


# -- first-rule requests -----------------------------------------------------

class ResponseChecker:
    """Checks a branch-first response: JSON, dimension identity, digest."""

    def __init__(self, digests):
        from wreathbranch.branching import wreath_specht_dimension
        self.digests = digests
        self.dim = wreath_specht_dimension
        self.dims = {}

    def _dim(self, m, mp):
        key = (m, mp)
        if key not in self.dims:
            self.dims[key] = self.dim(m, mp)
        return self.dims[key]

    def check(self, m, lam, out, code):
        """(None, entries) if the response is right, else (why, 0)."""
        if code is None:
            return f"over the {REQUEST_CAP_S} s cap", 0
        if code != 0:
            return f"exit code {code}", 0
        try:
            entries = json.loads(out)["multiplicities"]
            total = sum(e["mult"] * self._dim(
                m - 1, tuple(tuple(p) for p in e["nu"])) for e in entries)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed response: {exc}", 0
        if total != self._dim(m, lam):
            return f"dimension sum {total} != {self._dim(m, lam)}", 0
        if hashlib.sha256(out).hexdigest() != self.digests.get(
                digest_key(m, lam)):
            return "stdout differs from the recorded digest", 0
        return None, len(entries)


def cli_argv(m, lam):
    return ["branch-first", "-m", str(m), "--lambda",
            json.dumps([list(p) for p in lam], separators=(",", ":")),
            "--json"]


def batches(seconds, run_batch):
    """Run batches while one more, as long as the last, fits in `seconds`.

    There is always at least one batch, so the mix of inputs in a run does
    not depend on how fast the code is.
    """
    t0 = time.monotonic()
    walls = []
    while not walls or (time.monotonic() - t0 + walls[-1] <= seconds):
        b0 = time.monotonic()
        run_batch()
        walls.append(time.monotonic() - b0)
    return walls


def run_first_rule(workload, seed, seconds, env, checker, classes,
                   batch=None):
    """Cold CLI requests; a batch visits every cost class of every stratum."""
    batch = batch or cycle_length(classes[workload])
    requests = first_rule_requests(workload, seed, classes)
    stats = {"latencies": [], "instances": 0, "problems": []}
    t0 = time.monotonic()

    def run_batch():
        for _ in range(batch):
            if time.monotonic() - t0 > HARD_LIMIT_S:
                return
            m, lam = next(requests)
            dt, out, code = spawn([sys.executable, "-m", "wreathbranch.cli",
                                   *cli_argv(m, lam)], env, REQUEST_CAP_S)
            stats["latencies"].append(dt)
            problem, count = checker.check(m, lam, out, code)
            stats["instances"] += count
            if problem:
                stats["problems"].append(f"m={m} lambda={lam}: {problem}")

    return with_usage(stats, lambda: batches(seconds, run_batch))


def with_usage(stats, run_batches):
    cpu0, _ = children_usage()
    stats["batches"] = run_batches()
    cpu1, stats["peak_rss_mib"] = children_usage()
    stats["cpu_s"] = cpu1 - cpu0
    return stats


# -- verify sweeps -----------------------------------------------------------

def run_pass(suites, env, trace_path=None, cap_factor=1.0):
    """One worker process running the suites; one row per suite."""
    spec = [(name, max_m, max_n, SUITE_CAP_S[name] * cap_factor)
            for name, max_m, max_n, _ in suites]
    argv = [sys.executable, str(HERE / "worker.py"), "sweep",
            "--suites", json.dumps(spec)]
    if trace_path:
        argv += ["--trace", str(trace_path)]
    _, out, code = spawn(argv, env, sum(s[3] for s in spec) + 30)
    rows = {}
    for line in out.decode().splitlines():
        try:
            row = json.loads(line)
        except ValueError:      # a worker killed while printing
            continue
        rows[row["suite"]] = row
    result = []
    for name, _, _, expected in suites:
        row = rows.get(name, {"suite": name, "checked": 0, "failures": 0,
                              "wall_s": 0.0, "error": f"worker exit {code}"})
        problem = row["error"]
        if not problem and row["failures"]:
            problem = f"{row['failures']} failures"
        if not problem and row["checked"] != expected:
            problem = f"checked {row['checked']}, expected {expected}"
        row["problem"] = problem
        result.append(row)
    return result


def run_sweep(workload, seconds, env, suites=None):
    """Pinned suites; a batch is one pass in a fresh worker process."""
    suites = suites or SWEEP_SUITES[workload]
    stats = {"latencies": [], "instances": 0, "problems": []}

    def run_batch():
        for row in run_pass(suites, env):
            stats["latencies"].append(row["wall_s"])
            if row["problem"]:
                stats["problems"].append(f"{row['suite']}: {row['problem']}")
            else:
                stats["instances"] += row["checked"]

    return with_usage(stats, lambda: batches(seconds, run_batch))


# -- end-to-end metrics ------------------------------------------------------

def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(stats, setup_times):
    """Every end-to-end figure with its unit.

    Only the figures named in BENCHMARK.json go into the result; the rest
    are printed for reading.  The percentiles jump with the shapes a seed
    draws, because they fall between the strata's cost clusters, so they
    carry no bound.
    """
    lat = stats["latencies"]
    busy = sum(lat)
    ops = len(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (ops / busy, "1/s"),
        "cpu_per_request_ms": (stats["cpu_s"] / ops * 1e3, "ms"),
        "peak_rss_mib": (stats["peak_rss_mib"], "MiB"),
        "latency_p50_ms": (quantile(lat, 0.50) * 1e3, "ms"),
        "latency_p75_ms": (quantile(lat, 0.75) * 1e3, "ms"),
        "samples": (ops, "count"),
        "wall_s": (busy / len(stats["batches"]), "s"),
        "batches": (len(stats["batches"]), "count"),
        "instances_per_s": (stats["instances"] / busy, "1/s"),
        "cpu_s": (stats["cpu_s"], "s"),
    }


# -- traced run --------------------------------------------------------------

def merge_summaries(paths):
    merged = {"sites": {}, "caches": {}, "spans": 0, "import_ms": 0.0}
    for path in paths:
        s = json.loads(path.read_text())
        merged["spans"] += s["spans"]
        merged["import_ms"] += s.get("import_ms", 0.0)
        for site, row in s["sites"].items():
            acc = merged["sites"].setdefault(site, dict(row, calls=0, items=0,
                                                        spans=0, self_ns=0,
                                                        total_ns=0))
            for key in ("calls", "items", "spans", "self_ns", "total_ns"):
                acc[key] += row[key]
        for name, row in s["caches"].items():
            acc = merged["caches"].setdefault(name, {"hits": 0, "misses": 0,
                                                     "size": 0})
            acc["hits"] += row["hits"]
            acc["misses"] += row["misses"]
            acc["size"] = max(acc["size"], row["size"])
    return merged


def trace_first_rule(workload, seed, env, checker, classes, per_stratum):
    out_dir = TRACE_DIR / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    requests = first_rule_requests(workload, seed, classes)
    count = per_stratum * len(FIRST_RULE_STRATA[workload])
    plain = traced = 0.0
    output_bytes, problems, paths = 0, [], []
    for k in range(count):
        m, lam = next(requests)
        dt, out, code = spawn([sys.executable, "-m", "wreathbranch.cli",
                               *cli_argv(m, lam)], env, REQUEST_CAP_S)
        plain += dt
        path = out_dir / f"request-{k}"
        dt, out_t, code_t = spawn(
            [sys.executable, str(HERE / "worker.py"), "request", "--trace",
             str(path), "--request", str(k), "--", *cli_argv(m, lam)],
            env, REQUEST_CAP_S * TRACE_CAP_FACTOR)
        traced += dt
        output_bytes += len(out_t)
        for o, c in ((out, code), (out_t, code_t)):
            problem, _ = checker.check(m, lam, o, c)
            if problem:
                problems.append(f"m={m} lambda={lam}: {problem}")
        if code_t is not None:
            paths.append(path.with_suffix(".summary.json"))
    return {"summary": merge_summaries(paths), "plain_s": plain,
            "traced_s": traced, "output_bytes": output_bytes, "suites": [],
            "attempted": 2 * count, "problems": problems}


def trace_sweep(workload, env, suites=None):
    suites = suites or SWEEP_SUITES[workload]
    out_dir = TRACE_DIR / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    path = out_dir / "pass"
    plain = run_pass(suites, env)
    traced = run_pass(suites, env, path, TRACE_CAP_FACTOR)
    summary_path = path.with_suffix(".summary.json")
    problems = [f"{r['suite']}: {r['problem']}" for r in plain + traced
                if r["problem"]]
    return {"summary": merge_summaries([summary_path]
                                       if summary_path.exists() else []),
            "plain_s": sum(r["wall_s"] for r in plain),
            "traced_s": sum(r["wall_s"] for r in traced),
            "output_bytes": 0, "suites": plain,
            "attempted": 2 * len(suites), "problems": problems}


def per_layer(trace, names):
    """Resolve each per-layer metric name against the merged trace."""
    s = trace["summary"]
    sites, caches = s["sites"], s["caches"]
    by_def = {}
    for site, row in sites.items():
        acc = by_def.setdefault(row["def"], {"calls": 0, "items": 0,
                                             "spans": 0, "self_ns": 0,
                                             "total_ns": 0})
        for key in acc:
            acc[key] += row[key]

    def stat(name, key):
        # a cross-module lookup site (branching.lr_multi) has its own
        # figures; otherwise the name is the defining one (lr.lr_multi)
        row = sites.get(name)
        if row is None or row["def"] == name:
            row = by_def.get(name)
        return row[key] if row else 0

    def ratio(a, b):
        return a / b if b else 0.0

    def cache(name, key):
        row = caches.get(name)
        if row is None:
            return 0
        if key == "hit_ratio":
            return ratio(row["hits"], row["hits"] + row["misses"])
        return row[key]

    layer_self = {layer: 0 for layer in LAYERS}
    layer_spans = {layer: 0 for layer in LAYERS}
    for define, row in by_def.items():
        layer = define.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_ns"]
            layer_spans[layer] += row["spans"]
    suites = {r["suite"]: r for r in trace["suites"]}
    cli_main = stat("cli.main", "total_ns")
    special = {
        "cli.import_ms": s["import_ms"],
        "cli.self_ms": (cli_main - stat("branching.branch_first", "total_ns"))
        / 1e6 if cli_main else 0.0,
        "cli.output_bytes": trace["output_bytes"],
        "branching.output_entries": stat("branching.branch_first", "items"),
        "tableaux.enumerate_skew_ssyt.tableaux":
            stat("tableaux.enumerate_skew_ssyt", "items"),
        "lr.lattice_kept_ratio": ratio(
            stat("tableaux.is_lattice_word", "items"),
            stat("tableaux.enumerate_skew_ssyt", "items")),
        "trace.overhead_ratio": ratio(trace["traced_s"], trace["plain_s"]),
        "trace.traced_wall_ms": trace["traced_s"] * 1e3,
        "trace.untraced_wall_ms": trace["plain_s"] * 1e3,
        "trace.spans": s["spans"],
    }
    for layer in LAYERS:
        special[f"layer.{layer}.self_ms"] = layer_self[layer] / 1e6
        special[f"layer.{layer}.spans"] = layer_spans[layer]
    out = {}
    for name in names:
        head, _, key = name.rpartition(".")
        if name in special:
            value = special[name]
        elif head.startswith("verify.") and head[7:] in SUITE_CAP_S:
            row = suites.get(head[7:], {})
            value = row.get(key, 0) if key in ("wall_s", "checked") else None
        elif key in ("calls", "items", "spans"):
            value = stat(head, key)
        elif key in ("self_ms", "total_ms"):
            value = stat(head, key[:-3] + "_ns") / 1e6
        elif key in ("hits", "misses", "hit_ratio"):
            value = cache(head, key)
        elif key == "cache_size":
            value = cache(head, "size")
        else:
            value = None
        if value is None:
            raise KeyError(f"per-layer metric {name!r} is not defined")
        out[name] = value
    return out


# -- environment and output --------------------------------------------------

def environment() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def load_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in contract["end_to_end"]],
            [(m["name"], m["unit"]) for m in contract["per_layer"]])


def run(workload, seed, seconds, trace, *, digests=None, batch=None,
        setup_samples=SETUP_SAMPLES, suites=None,
        trace_per_stratum=TRACE_PER_STRATUM, emit=print):
    """Run one workload; return the result object printed last."""
    e2e_names, layer_names = load_contract()
    inputs = json.loads((HERE / "inputs.json").read_text())
    classes = inputs["classes"]
    if digests is None:
        digests = inputs["digests"]
    env = child_env()
    setup_times = measure_setup(workload, seed, env, setup_samples)
    first_rule = workload in FIRST_RULE_STRATA
    checker = ResponseChecker(digests) if first_rule else None
    emit(f"workload {workload} seed {seed} "
         f"({'closed loop, one client' if first_rule else 'sweep'}"
         f"{', traced' if trace else ''})")
    emit("env " + json.dumps(environment(), sort_keys=True))

    if trace:
        if first_rule:
            traced = trace_first_rule(workload, seed, env, checker, classes,
                                      trace_per_stratum)
        else:
            traced = trace_sweep(workload, env, suites)
        values = per_layer(traced, [n for n, _ in layer_names])
        units = dict(layer_names)
        attempted, problems = traced["attempted"], traced["problems"]
        emit(f"  trace written under {TRACE_DIR / workload}")
    else:
        if first_rule:
            stats = run_first_rule(workload, seed, seconds, env, checker,
                                   classes, batch)
        else:
            stats = run_sweep(workload, seconds, env, suites)
        figures = end_to_end(stats, setup_times)
        units = dict(e2e_names)
        values = {n: figures[n][0] for n, _ in e2e_names}
        extra = [(n, v, u) for n, (v, u) in figures.items()
                 if n not in values]
        attempted, problems = len(stats["latencies"]), stats["problems"]

    failed = len(problems)
    for name, value in values.items():
        emit(f"  {name:48s} {value:>16.6g} {units[name]}")
    if not trace:
        for name, value, unit in extra:
            emit(f"  {name:48s} {value:>16.6g} {unit}  (not gated)")
    emit(f"  {'error_rate':48s} {failed / attempted:>16.6g} ratio "
         f"({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        emit(f"  FAILED {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wreathbranch" / "cli.py").is_file():
        print(f"no wreathbranch sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
