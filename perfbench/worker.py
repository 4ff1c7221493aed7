"""One repetition of a workload in a fresh process, as a user command runs.

    python3 perfbench/worker.py --workload NAME --seed N --rep K --mode plain|traced

Prints one JSON object: `ready`, the perf_counter reading just before the
timed work (the parent subtracts its own reading taken before the spawn);
the repetition's wall time, operation counts and check results; and
`rss_mb`, the process's peak resident memory.  The plain mode adds the
reference-loop samples of a SpeedProbe, the traced mode per-span totals and
per-search records.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import isophase  # noqa: E402
from isophase.isosearch import FOUND, Injection, PartialInjection, is_partial_isomorphism  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# (module, attribute, span name): each layer's public functions, replaced in
# the namespace their callers look them up from.
TRACED = (
    ("isophase.experiments", "run_sweep", "experiments.run_sweep"),
    ("isophase.experiments", "sample_gnp", "graphs.sample_gnp"),
    ("isophase.experiments", "embed_exists", "isosearch.embed_exists"),
    ("isophase.experiments", "common_exists", "isosearch.common_exists"),
    ("isophase.edgegraph", "build_embedding_edge_graph", "edgegraph.build_embedding_edge_graph"),
    ("isophase.edgegraph", "build_common_edge_graph", "edgegraph.build_common_edge_graph"),
    ("isophase.edgegraph", "classify_components", "edgegraph.classify_components"),
    ("isophase.moments", "second_moment_exact", "moments.second_moment_exact"),
    ("isophase.moments", "ratio_decomposition", "moments.ratio_decomposition"),
    ("isophase.moments", "s_bound", "moments.s_bound"),
)
SEARCHES = ("isosearch.embed_exists", "isosearch.common_exists")
REF_PERIOD_S = 0.3
REF_LOOPS = 100_000


def reference_loop() -> None:
    """Fixed pure-Python work, about 25 ms on an idle core."""
    s, seen = 0, {}
    for i in range(REF_LOOPS):
        x = (i * 2654435761) & 0xFFFFFFFF
        s ^= x >> 3
        seen[x & 1023] = s


def alone() -> bool:
    """Whether this process runs a single thread and has no child process."""
    tasks = os.listdir("/proc/self/task")
    if len(tasks) != 1:
        return False
    with open(f"/proc/self/task/{tasks[0]}/children", encoding="ascii") as fh:
        return not fh.read().split()


class SpeedProbe:
    """Times reference_loop every REF_PERIOD_S of wall time while the
    workload runs, from a SIGALRM handler in the main thread, and once just
    before and once just after.

    On a host shared with other tenants the speed of a core drifts by tens
    of percent within seconds.  Samples taken in the thread that runs the
    workload, between its bytecodes, see the same drift, so the benchmark
    can express the workload's time in reference-loop units.  A tick that
    finds the workload running other threads or child processes takes no
    sample: the loop would then share the interpreter lock or the cores with
    the workload's own work and run slow, which would overstate the
    workload's speed.  The two bracketing samples fall outside the workload.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inside_s = 0.0
        self.skipped = 0

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        if alone():
            self.inside_s += self.sample()
        else:
            self.skipped += 1

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def witness_ok(args: tuple, outcome) -> bool:
    """Re-check a FOUND witness of embed_exists(x, y, ...) or
    common_exists(x, y, m, ...)."""
    x, y, w = args[0], args[1], outcome.witness
    if isinstance(w, Injection):
        return w.m == x.n and is_partial_isomorphism(
            x, y, PartialInjection(tuple(range(w.m)), w.image)
        )
    return isinstance(w, PartialInjection) and w.m == args[2] and is_partial_isomorphism(x, y, w)


def install(tracer: Tracer) -> dict:
    """Patch every traced function; returns the per-search records."""
    searches = {name: {"nodes": 0, "found": 0, "bad_witnesses": 0, "ms": []} for name in SEARCHES}
    recheck = tracer.wrap("trace.witness_check", witness_ok)

    def recorder(name: str):
        log = searches[name]

        def on_result(idx: int, args: tuple, outcome) -> None:
            log["ms"].append((tracer.end[idx] - tracer.start[idx]) * 1e3)
            log["nodes"] += outcome.nodes
            if outcome.status == FOUND:
                log["found"] += 1
                if not recheck(args, outcome):
                    log["bad_witnesses"] += 1

        return on_result

    for module, attr, span in TRACED:
        tracer.patch(module, attr, span, recorder(span) if span in searches else None)
    return searches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = ap.parse_args(argv)

    if os.path.commonpath([os.path.abspath(isophase.__file__), SRC]) != SRC:
        raise SystemExit(f"isophase was imported from {isophase.__file__}, not from {SRC}")
    inputs = workloads.build(args.workload, args.seed, args.rep)
    if args.mode == "traced":
        tracer = Tracer()
        searches = install(tracer)
        ready = time.perf_counter()
        output = workloads.run(args.workload, inputs)
        wall = time.perf_counter() - ready
        tracer.restore()
    else:
        probe = SpeedProbe()
        ready = time.perf_counter()
        with probe:
            t0 = time.perf_counter()
            output = workloads.run(args.workload, inputs)
            wall = time.perf_counter() - t0
    ops = workloads.attempted(args.workload, inputs)
    failed, problems = workloads.check(args.workload, inputs, output)
    report = {
        "ready": ready,
        "wall_s": wall,
        "attempted": ops,
        "digest": workloads.digest(args.workload, output),
    }
    if args.mode == "traced":
        bad = sum(log["bad_witnesses"] for log in searches.values())
        if bad:
            failed = min(ops, failed + bad)
            problems.append(f"{bad} FOUND witnesses failed the re-check")
        report.update(spans=tracer.reduce(), searches=searches)
    else:
        report.update(ref_s=probe.samples, ref_inside_s=probe.inside_s,
                      ref_skipped=probe.skipped)
    report.update(failed=failed, problems=problems, rss_mb=peak_rss_mb())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
