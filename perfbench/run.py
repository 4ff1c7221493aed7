"""isophase benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh process (perfbench/worker.py) that runs one
sweep or one cold census, one at a time: a closed loop with one client.
Repetition K of a run sweeps the trials of workloads.rep_seed(N, K).  With
--trace 0 a run makes at least MIN_PLAIN plain repetitions, and more while
the next is expected to end within --seconds; with --trace 1 it makes pairs
of a plain and a traced repetition on the same inputs, at least one pair.
Throughput and set-up time are measured in reference seconds (see
worker.SpeedProbe and summary.reference_seconds).

The last line of standard output is the result: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  The line before it, also
written to perfbench/results/, is the full record of the run: machine,
Python, commit, CPU count and every repetition's raw values.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import isophase  # noqa: E402

import workloads  # noqa: E402
from summary import reference_seconds, tail  # noqa: E402
from worker import SEARCHES  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
MIN_PLAIN = 3
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "decided_per_ref_s": "1/ref_s", "peak_rss_mb": "MB"}
SEARCH_METRICS = {
    "calls": "count", "nodes": "count", "nodes_per_call": "count", "us_per_node": "us",
    "ms_p50": "ms", "ms_p99": "ms", "found_share": "ratio", "share": "ratio",
}
EDGEGRAPH = ("build_embedding_edge_graph", "build_common_edge_graph", "classify_components")
PER_LAYER = {
    "graphs.sample_gnp.calls": "count",
    "graphs.sample_gnp.us_per_call": "us",
    "graphs.sample_gnp.share": "ratio",
    **{f"{name}.{key}": unit for name in SEARCHES for key, unit in SEARCH_METRICS.items()},
    "experiments.run_sweep.self_s": "s",
    **{f"edgegraph.{fn}.{key}": unit for fn in EDGEGRAPH
       for key, unit in (("calls", "count"), ("us_per_call", "us"))},
    "edgegraph.share": "ratio",
    "moments.self_s": "s",
    "moments.built_per_pair": "ratio",
    "trace.overhead_share": "ratio",
}
# Per-layer metrics that count work rather than time it: taken from the
# first round of a traced run, so that they repeat exactly for one seed.
COUNTS = (".calls", ".nodes", ".nodes_per_call", ".found_share", ".built_per_pair")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def spawn(name: str, seed: int, rep: int, mode: str, timeout: float) -> dict:
    """Run one worker and return its report; a worker that fails or times
    out yields an `error` report."""
    env = {k: v for k, v in os.environ.items() if k != "ISO_PHASE_WORKERS"}
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--rep", str(rep), "--mode", mode]
    head = {"mode": mode, "rep": rep}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {**head, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {**head, "error": proc.stderr.strip()[-2000:]}
    report = json.loads(proc.stdout.splitlines()[-1])
    report.update(head, setup_s=report.pop("ready") - t0)
    return report


def repetitions(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """The reports of one run's repetitions, in rounds of one plain (and,
    traced, one traced) repetition on the same inputs."""
    start = time.perf_counter()
    deadline = start + seconds
    modes = ("plain", "traced") if trace else ("plain",)
    min_rounds = 1 if trace else MIN_PLAIN
    reps: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            left = HARD_LIMIT_S - (time.perf_counter() - start)
            reps.append(spawn(name, seed, len(rounds), mode, left))
            if reps[-1].get("error", "").startswith("timed out"):
                return reps
        rounds.append(time.perf_counter() - t0)
        if len(rounds) >= min_rounds and time.perf_counter() + median(rounds) > deadline:
            return reps


def consistency(name: str, reps: list[dict]) -> list[str]:
    """Repetitions on the same inputs must give the same output: every
    census repetition, and the plain and traced repetition of one round."""
    first: dict[object, dict] = {}
    problems = []
    for r in reps:
        if "error" in r:
            continue
        key = None if name == workloads.CENSUS else r["rep"]
        ref = first.setdefault(key, r)
        if r["digest"] != ref["digest"]:
            problems.append(f"{r['mode']} repetition {r['rep']} output differs from "
                            f"{ref['mode']} repetition {ref['rep']}")
    return problems


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Set-up time and memory are medians over the repetitions; throughput
    pools them, decided operations over the sum of their reference time."""
    return {
        "setup_s": median([reference_seconds(r["setup_s"], r["ref_s"][:1]) for r in plain]),
        "decided_per_ref_s": sum(r["attempted"] - r["failed"] for r in plain) / sum(
            reference_seconds(r["wall_s"] - r["ref_inside_s"], r["ref_s"]) for r in plain
        ),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
    }


def per_layer(traced: dict, plain: dict, pairs: int) -> dict[str, float]:
    """Layer metrics of one traced repetition; `plain` ran the same inputs
    untraced."""
    wall = traced["wall_s"]
    spans = traced["spans"]

    def us_per_call(name: str) -> float:
        return ratio(spans[name]["total_s"] * 1e6, spans[name]["calls"])

    def layer_sum(layer: str, key: str) -> float:
        return sum(v[key] for k, v in spans.items() if k.startswith(layer + "."))

    out: dict[str, float] = {}
    name = "graphs.sample_gnp"
    out[f"{name}.calls"] = spans[name]["calls"]
    out[f"{name}.us_per_call"] = us_per_call(name)
    out[f"{name}.share"] = spans[name]["total_s"] / wall
    for name in SEARCHES:
        calls, log = spans[name]["calls"], traced["searches"][name]
        ms = log["ms"]
        out.update({
            f"{name}.calls": calls,
            f"{name}.nodes": log["nodes"],
            f"{name}.nodes_per_call": ratio(log["nodes"], calls),
            f"{name}.us_per_node": ratio(spans[name]["total_s"] * 1e6, log["nodes"]),
            f"{name}.ms_p50": median(ms) if ms else 0.0,
            f"{name}.ms_p99": tail(ms) if ms else 0.0,
            f"{name}.found_share": ratio(log["found"], calls),
            f"{name}.share": spans[name]["total_s"] / wall,
        })
    out["experiments.run_sweep.self_s"] = spans["experiments.run_sweep"]["self_s"]
    for fn in EDGEGRAPH:
        name = f"edgegraph.{fn}"
        out[f"{name}.calls"] = spans[name]["calls"]
        out[f"{name}.us_per_call"] = us_per_call(name)
    out["edgegraph.share"] = layer_sum("edgegraph", "outer_s") / wall
    out["moments.self_s"] = layer_sum("moments", "self_s")
    out["moments.built_per_pair"] = ratio(spans["edgegraph.classify_components"]["calls"], pairs)
    out["trace.overhead_share"] = wall / (plain["wall_s"] - plain["ref_inside_s"]) - 1.0
    return out


def combine(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first round, every timed metric the median over rounds."""
    return {
        k: rounds[0][k] if k.endswith(COUNTS) else median(r[k] for r in rounds)
        for k in rounds[0]
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the library's sources, naming the code measured even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(isophase.__file__))
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine() -> dict:
    return {
        "system": platform.system(), "release": platform.release(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inputs = workloads.build(args.workload, args.seed)
    ops = workloads.attempted(args.workload, inputs)
    pairs = ops if args.workload == workloads.CENSUS else 0

    reps = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = []
    for r in reps:
        if "error" in r:
            r.update(attempted=ops, failed=ops)
            problems.append(f"{r['mode']} repetition {r['rep']}: {r['error']}")
        problems.extend(r.get("problems", []))
    mismatch = consistency(args.workload, reps)
    problems.extend(mismatch)
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed"] for r in reps) + (ops if mismatch else 0))
    done = {(r["rep"], r["mode"]): r for r in reps if "error" not in r}
    plain = [r for (_, mode), r in done.items() if mode == "plain"]
    traced = [(done[k, "traced"], done[k, "plain"]) for k, mode in done
              if mode == "traced" and (k, "plain") in done]
    if not plain or (args.trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        metrics = combine([per_layer(t, p, pairs) for t, p in traced])
        units = PER_LAYER
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    now = datetime.datetime.now(datetime.timezone.utc)
    record = {
        "args": vars(args),
        "utc": now.isoformat(timespec="seconds"),
        "machine": machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "problems": problems,
        "repetitions": reps,
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = now.strftime("%Y%m%dT%H%M%SZ")
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
