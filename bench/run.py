"""edimkit benchmark runner.

    python3 bench/run.py --workload chartab-cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: edimkit is imported from ./src.
Queries go through `edimkit.cli.main(argv)` in this process with stdout
captured, one after another (a closed loop with one client).  Each pass
visits every query of the workload's pool in a seeded order, and passes
repeat until --seconds have elapsed (and at least two have run); a cheap
query runs several times in a pass (see run_passes).  The seed also picks
the one presentation of the pool that every pass uses.  Every answer
is checked (check.py) as it arrives.  The last line of stdout is the result
as JSON; the lines before it record the environment, failures and, with
--trace 1, the per-layer breakdown.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _cap in THREAD_CAPS:
    os.environ[_cap] = "1"      # before numpy is imported, here and in children

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3       # set up at least this many times,
SETUP_MIN_S = 2.0    # and until the set-ups have taken this long
MIN_PASSES = 2
# seconds each query is credited with per pass (see run_passes); small
# enough that a run of 25 s has several passes beyond the first two
QUANTUM_S = {"chartab-cold": 0.05, "engine-warm": 0.05,
             "perm-structure": 0.05, "mhom-maps": 0.01}
PREFILL_TIMEOUT = 50
LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

import check      # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402


def _import_edimkit():
    """Import edimkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "edimkit" / "__init__.py").is_file():
        sys.exit(f"error: no edimkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edimkit.cli
    if Path(edimkit.cli.__file__).resolve().parent != SRC / "edimkit":
        sys.exit(f"error: edimkit imported from {edimkit.cli.__file__}")
    return edimkit.cli


def _call(cli, argv):
    """One CLI query as a user pays for it; returns (exit code, stdout,
    wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed query, not a crash
        rc = f"uncaught {type(exc).__name__}: {exc}"
    return (rc, out.getvalue(), time.perf_counter() - t0,
            time.process_time() - c0)


def _argv(query, paths):
    return [paths.get(a, a) for a in query["argv"]]


# ---------------------------------------------------------------------------
# set-up


def prefill(workload, repdir):
    """Set-up work done in a fresh interpreter: import edimkit and, on
    engine-warm, write the facts file and run every query once so the
    character-table cache is warm for the timed process."""
    cli = _import_edimkit()
    if workload != "engine-warm":
        return
    queries = json.loads((repdir / "queries.json").read_text())
    fact_query = next(q for q in queries if q["id"] == workloads.FACT["query"])
    rc, out, _, _ = _call(cli, ["invariants", fact_query["argv"][1]])
    if rc != 0:
        sys.exit(f"error: invariants failed during set-up: {out}")
    facts = workloads.fact_store(json.loads(out)["fingerprint"])
    (repdir / "facts.json").write_text(json.dumps(facts))
    paths = {"{facts}": str(repdir / "facts.json")}
    for q in queries:
        _call(cli, _argv(q, paths))


def setup(workload, seed, workdir, expected):
    """Repeat the whole set-up at least SETUP_REPS times and for at least
    SETUP_MIN_S; return the last one's queries and directory, and every
    set-up time."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        rep = len(times)
        t0 = time.perf_counter()
        repdir = workdir / f"setup{rep}"
        (repdir / "inputs").mkdir(parents=True)
        (repdir / "cache").mkdir()
        queries = workloads.build(workload, seed, repdir / "inputs", expected)
        (repdir / "queries.json").write_text(json.dumps(queries))
        env = dict(os.environ, EDIMKIT_CACHE=str(repdir / "cache"))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prefill",
             str(repdir), "--workload", workload],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=PREFILL_TIMEOUT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed: {proc.stderr.strip()}")
        times.append(time.perf_counter() - t0)
    return queries, repdir, times


# ---------------------------------------------------------------------------
# measurement


def tail_percentile(n):
    """Highest ladder percentile leaving >= 10 of n samples beyond it."""
    for p in LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def tail_mean(values, p):
    """Mean of the values beyond the nearest-rank p-th percentile."""
    s = sorted(values)
    return statistics.fmean(s[math.ceil(p / 100 * len(s)):])


def run_passes(cli, queries, paths, workload, seed, seconds, workdir,
               factors, tracer=None):
    """Closed loop over passes of the pool, each answer checked as it
    arrives.  Every query runs at least once in each of the first MIN_PASSES
    passes.  Without a tracer, each pass also credits every query with
    QUANTUM_S seconds, and a query runs while its credit is positive: each
    query gets about the same share of the run, spread over the whole run,
    however long one run of it takes.  The run stops at the first query
    after --seconds once MIN_PASSES passes are complete.  With a tracer,
    every query runs once per pass and only whole passes run, so counts
    repeat exactly.  Returns (query id, wall s, CPU s, verdict) per query
    run, and the wall time of each whole traced and untraced pass."""
    rng = random.Random(f"order:{workload}:{seed}")
    ids = [q["id"] for q in queries]
    memos = [v for name, m in list(sys.modules.items())
             if name.startswith("edimkit")
             for v in vars(m).values() if hasattr(v, "cache_clear")]
    verdicts = {}   # identical outputs of one query are checked once
    records = []
    pass_times = {"traced": [], "untraced": []}
    credit = dict.fromkeys(ids, 0.0)
    start = time.perf_counter()
    passes = 0

    def time_is_up():
        return passes >= MIN_PASSES and time.perf_counter() - start >= seconds

    def run_one(q):
        if workload == "chartab-cold":
            paths["{cache}"] = tempfile.mkdtemp(dir=workdir / "cold")
        # start each query as a fresh CLI process would: empty memo caches,
        # and no other query's garbage left to collect
        for memo in memos:
            memo.cache_clear()
        gc.collect()
        gc.freeze()
        rc, out, wall, cpu = _call(cli, _argv(q, paths))
        if traced:
            tracer.counts["cli.output_bytes"] += len(out.encode())
        if workload == "chartab-cold":
            shutil.rmtree(paths["{cache}"])
        key = (q["id"], rc, hash(out))
        if key not in verdicts:
            verdicts[key] = judge(q, rc, out, factors)
        records.append((q["id"], wall, cpu, verdicts[key]))
        return wall

    while not time_is_up():
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        t_pass = 0.0
        for q in rng.sample(queries, len(queries)):
            if tracer is not None:
                tracer.query_id = ids.index(q["id"])
                t_pass += run_one(q)
                continue
            if time_is_up():
                break
            credit[q["id"]] += QUANTUM_S[workload]
            must = passes < MIN_PASSES
            while must or credit[q["id"]] > 0:
                credit[q["id"]] -= run_one(q)
                must = False
        else:
            pass_times["traced" if traced else "untraced"].append(t_pass)
        if traced:
            tracer.uninstall()
        passes += 1
    return records, pass_times


def judge(query, rc, out, factors):
    """None if the answer is correct, else why not."""
    if isinstance(rc, str):
        return rc
    try:
        return check.verdict(query, rc, out, factors)
    except (KeyError, TypeError, ValueError, AttributeError,
            IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def environment(seed):
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_at_start": os.getloadavg(),
            "thread_caps": {c: os.environ[c] for c in THREAD_CAPS},
            "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prefill", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.prefill:
        prefill(args.workload, Path(args.prefill))
        return 0

    env_record = environment(args.seed)
    cli = _import_edimkit()
    expected = json.loads((BENCH / "expected.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # never touch ~/.cache/edimkit or an inherited cache directory
        os.environ["EDIMKIT_CACHE"] = str(workdir / "cache")
        queries, repdir, setup_times = setup(args.workload, args.seed,
                                             workdir, expected)
        os.environ["EDIMKIT_CACHE"] = str(repdir / "cache")
        (workdir / "cold").mkdir()
        paths = {"{facts}": str(repdir / "facts.json")}
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        records, pass_times = run_passes(cli, queries, paths, args.workload,
                                         args.seed, args.seconds, workdir,
                                         expected["factors"], tracer)
        failures = [{"query": qid, "reason": why}
                    for qid, _, _, why in records if why is not None]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = report(args, queries, records, pass_times, failures,
                        setup_times, peak_rss_mb, tracer, env_record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(args, queries, records, pass_times, failures, setup_times,
           peak_rss_mb, tracer, env_record):
    attempted = len(records)
    p_tail = tail_percentile(len(queries))
    info = {"workload": args.workload, "environment": env_record,
            "passes": len(pass_times["untraced"]) + len(pass_times["traced"]),
            "pool_size": len(queries), "attempted": attempted,
            "failed_frac": len(failures) / attempted,
            "failures": failures,
            "setup_s_each": setup_times}
    if tracer is None:
        # a query's latency is its median over its runs; the median and the
        # tail are taken over the pool
        by_query = {}
        for qid, wall, _, _ in records:
            by_query.setdefault(qid, []).append(wall)
        lat = [statistics.median(v) for v in by_query.values()]
        # below 1 when the host took the CPU away during the queries
        info["cpu_over_wall"] = (sum(cpu for _, _, cpu, _ in records) /
                                 sum(wall for _, wall, _, _ in records))
        info["latency"] = {"samples": len(lat), "runs_per_sample": len(records) / len(lat),
                           "tail_percentile": p_tail,
                           "samples_beyond_tail": len(lat) - math.ceil(p_tail / 100 * len(lat))}
        print(json.dumps({"info": info}))
        metrics = {
            "throughput_qps": (len(lat) / sum(lat), "1/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (tail_mean(lat, p_tail), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        correct = not failures
    else:
        n_traced = len(pass_times["traced"])
        layer = tracer.summary(n_traced)
        overhead = (statistics.median(pass_times["traced"]) /
                    statistics.median(pass_times["untraced"]) - 1)
        layer["trace.overhead_frac"] = overhead
        design = design_checks(args.workload, layer)
        info["trace"] = {"traced_passes": n_traced,
                         "untraced_pass_s": pass_times["untraced"],
                         "traced_pass_s": pass_times["traced"],
                         "overhead_frac": overhead, "design": design}
        print(json.dumps({"info": info}))
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.npz"
        tracer.dump(spans_path, [q["id"] for q in queries])
        metrics = {name: (layer.get(name, 0.0), unit)
                   for name, unit in per_layer_units()}
        correct = not failures and design.get("cache_misses_zero", True)
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def design_checks(workload, m):
    """The traced run's confirmation of what each workload is for."""
    shares = {k.split(".")[1]: v for k, v in m.items() if k.startswith("share.")}
    top = max(shares, key=shares.get) if shares else None
    out = {"largest_self_share": top}
    if workload == "engine-warm":
        out["cache_misses_zero"] = m.get("chartab.cache_misses", 0) == 0
        out["character_table_self_s"] = m.get("chartab.character_table.self_s", 0)
    if workload != "mhom-maps":
        out["mhom_poly_zero"] = not any(
            v for k, v in m.items()
            if k.startswith(("mhom.", "poly.")) and k.endswith((".calls", "_s")))
    return out


if __name__ == "__main__":
    sys.exit(main())
