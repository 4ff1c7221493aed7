"""Command-line surface.

Subcommands: sample, embed, common, threshold, region, moments, verify,
experiment, rado.  `--json` switches every report to a stable JSON object;
plain output is for humans.  Exit codes: 0 success, 1 property-suite failure,
2 usage or validation error, 3 budget-dominated or flagged-invalid result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Optional

from . import edgegraph, experiments, moments, rado, thresholds, verify
from .errors import BudgetExceededError, InvalidInputError, IsophaseError, ScaleError
from .graphs import EdgeLaw, Graph, read_graph, sample_gnp, to_text, write_graph
from .isosearch import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FOUND,
    common_count,
    common_exists,
    embed_count,
    embed_exists,
    max_common_size,
)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _max_str_digits() -> int:
    """Python's limit on int-to-str conversion; 0 before 3.10.7, which has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(what: str, digits: int) -> ScaleError:
    return ScaleError(f"{what} has more than {digits} decimal digits")


def _printable(value: int, what: str) -> int:
    """value, if Python will write it in decimal; else a ScaleError."""
    digits = _max_str_digits()
    if digits and abs(value) >= 10**digits:
        raise _too_long(what, digits)
    return value


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load_or_sample(args, prefix: str) -> Graph:
    path = getattr(args, prefix)
    if path is not None:
        return read_graph(path)
    n = getattr(args, f"{prefix}_n")
    p = getattr(args, f"{prefix}_p")
    seed = getattr(args, f"{prefix}_seed")
    if n is None:
        raise IsophaseError(f"give --{prefix} FILE or --{prefix}-n/--{prefix}-p/--{prefix}-seed")
    return sample_gnp(EdgeLaw(n, p, seed))


def _add_graph_source(parser: argparse.ArgumentParser, prefix: str, role: str) -> None:
    parser.add_argument(f"--{prefix}", metavar="FILE", help=f"{role} graph file")
    parser.add_argument(f"--{prefix}-n", type=int, help=f"sample the {role} on this many vertices")
    parser.add_argument(f"--{prefix}-p", type=float, default=0.5, help=f"{role} edge probability")
    parser.add_argument(f"--{prefix}-seed", type=int, default=0, help=f"{role} sample seed")


def cmd_sample(args) -> int:
    g = sample_gnp(EdgeLaw(args.n, args.p, args.seed))
    if args.out:
        write_graph(g, args.out)
    else:
        sys.stdout.write(to_text(g))
    return EXIT_OK


def _fields(record, *drop: str) -> dict:
    """The dataclass record's fields in order, without those in `drop`."""
    return {key: value for key, value in asdict(record).items() if key not in drop}


def _partial_witness(w) -> dict:
    return {"witness_domain": list(w.domain), "witness_image": list(w.image)}


def _count(payload: dict, count) -> int:
    """Add count()'s result to the payload; a budget stop adds the partial
    count and exits 3."""
    try:
        res = count()
    except BudgetExceededError as exc:
        payload.update(count=str(exc.partial_count), nodes=exc.nodes, complete=False)
        return EXIT_BUDGET
    payload.update(count=str(res.value), nodes=res.nodes, complete=True)
    return EXIT_OK


def _exists(payload: dict, out, witness_fields) -> int:
    """Add a search outcome to the payload; a budget stop exits 3."""
    payload.update(status=out.status, nodes=out.nodes)
    if out.status == FOUND:
        payload.update(witness_fields(out.witness))
    return EXIT_BUDGET if out.status == BUDGET_EXCEEDED else EXIT_OK


def cmd_embed(args) -> int:
    x = _load_or_sample(args, "pattern")
    y = _load_or_sample(args, "host")
    payload: dict = {"pattern_n": x.n, "host_n": y.n, "budget": args.budget}
    if args.count:
        code = _count(payload, lambda: embed_count(x, y, args.budget))
    else:
        out = embed_exists(x, y, args.budget)
        code = _exists(payload, out, lambda w: {"witness": list(w.image)})
    _emit(payload, args.json)
    return code


def cmd_common(args) -> int:
    if args.max and (args.count or args.m is not None):
        raise InvalidInputError("--max searches for the largest size; --count and --m do "
                                "not apply to it")
    x = _load_or_sample(args, "x")
    y = _load_or_sample(args, "y")
    payload: dict = {"n": x.n, "budget": args.budget}
    if args.max:
        res = max_common_size(x, y, args.budget)
        payload.update(_fields(res, "witness"))
        if res.witness is not None:
            payload.update(_partial_witness(res.witness))
        code = EXIT_OK if res.conclusive else EXIT_BUDGET
    else:
        m = 1 if args.m is None else args.m
        payload["m"] = m
        if args.count:
            code = _count(payload, lambda: common_count(x, y, m, args.budget))
        else:
            code = _exists(payload, common_exists(x, y, m, args.budget), _partial_witness)
    _emit(payload, args.json)
    return code


def cmd_threshold(args) -> int:
    params = thresholds.derive_params(args.p, args.q)
    report = thresholds.threshold_report(args.n, params, args.cn)
    _emit({**asdict(report), **asdict(params)}, args.json)
    return EXIT_OK


def cmd_region(args) -> int:
    inside = thresholds.in_admissible_region(args.p, args.q)
    p_star, q_star = thresholds.region_corner()
    payload = {
        "p": args.p,
        "q": args.q,
        "inside": inside,
        "membership": "inside" if inside else "outside",
        "corner_p": p_star,
        "corner_q": q_star,
        **asdict(thresholds.derive_params(args.p, args.q)),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_moments(args) -> int:
    if args.decompose and (args.variant == "embed" or args.first_only):
        raise InvalidInputError("--decompose splits the common-subgraph ratio; it does not "
                                "apply with --variant embed or --first-only")
    params = thresholds.derive_params(args.p, args.q)
    variant = edgegraph.EMBEDDING if args.variant == "embed" else edgegraph.COMMON
    n, m = args.n, args.m
    what = f"the pair space of n={n}, m={m}"
    digits = _max_str_digits()
    if digits and moments.pair_space_log10(n, m, variant) > digits:
        raise _too_long(what, digits)
    log_en = moments.expected_log(n, m, params, variant)
    space = moments.pair_space(n, m, variant)
    payload: dict = {
        "n": n,
        "m": m,
        "variant": args.variant,
        "pair_space": _printable(space, what),
        "expected": {"log": log_en, "value": moments.float_exp(log_en, "E N")},
    }
    if not args.first_only:
        en2 = moments.second_moment_exact(n, m, params, variant)
        ratio = moments.second_moment_ratio(n, m, params, variant)
        payload["second_moment"] = {"log": math.log(en2), "value": en2}
        payload["ratio"] = {"log": math.log(ratio), "value": ratio}
        if variant == edgegraph.EMBEDDING:
            bounds = moments.s_bound(n, m, args.p, args.c, "exact")
            payload["s_bound"] = asdict(bounds)
        elif args.decompose:
            dec = moments.ratio_decomposition(n, m, params, args.c)
            payload["decomposition"] = _fields(dec, "c", "by_dr")
    _emit(payload, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.pairs, args.seed)
    ok = all(rep.ok for rep in reports)
    if args.json:
        payload = {"suites": [{**asdict(rep), "ok": rep.ok} for rep in reports], "ok": ok}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.summary())
            for violation in rep.violations[:10]:
                print(f"  {violation}")
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def cmd_experiment(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = experiments.ExperimentConfig.from_json(fh.read())
    except (OSError, UnicodeDecodeError, IsophaseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.q_overridden:
        print("warning: embed sweep with q != 1/2 is outside the sharp-transition hypothesis",
              file=sys.stderr)
    result = experiments.run_sweep(config)
    if config.csv_path:
        experiments.export(result, "csv", config.csv_path)
    if config.jsonl_path:
        experiments.export(result, "jsonl", config.jsonl_path)
    for row in result.rows:
        print(
            f"{row.problem} n={row.n} m={row.m}: p_hat={row.p_hat:.3f} "
            f"[{row.ci_low:.3f}, {row.ci_high:.3f}] successes={row.successes} "
            f"unknowns={row.unknowns} mean_nodes={row.mean_nodes:.1f}"
        )
    for n, crossing in result.empirical_thresholds.items():
        print(f"empirical threshold n={n}: {crossing}")
    if result.invalid:
        share = f"{experiments.MAX_UNKNOWN_SHARE:.0%}"
        print(f"sweep flagged invalid: a cell exceeded {share} unknowns", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


RADO_ARITY = {"adjacent": 2, "encode": 1, "decode": 1, "witness": 0}


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{what} must be an integer, got {text!r}") from None


def cmd_rado(args) -> int:
    want = RADO_ARITY[args.action]
    if len(args.args) != want:
        raise InvalidInputError(
            f"rado {args.action} takes {want} positional argument(s), got {len(args.args)}"
        )
    if args.action == "adjacent":
        a, b = (_parse_int(v, "rado adjacent vertex") for v in args.args)
        adjacent = rado.bit_adjacent(a, b)
        _emit({"a": a, "b": b, "adjacent": adjacent}, args.json)
        return EXIT_OK
    if args.action == "encode":
        s = rado.parse_set_literal(args.args[0])
        code = _printable(rado.ackermann_encode(s), "the code")
        _emit({"set": repr(s), "code": str(code)}, args.json)
        return EXIT_OK
    if args.action == "decode":
        s = rado.ackermann_decode(_parse_int(args.args[0], "rado decode code"))
        _emit({"code": args.args[0], "set": repr(s)}, args.json)
        return EXIT_OK
    u_set = {_parse_int(v, "--adjacent entry") for v in args.adjacent.split(",") if v != ""}
    v_set = {_parse_int(v, "--nonadjacent entry") for v in args.nonadjacent.split(",") if v != ""}
    z = _printable(rado.extension_witness(u_set, v_set), "the witness")
    _emit({"adjacent_to": sorted(u_set), "nonadjacent_to": sorted(v_set), "witness": str(z)},
          args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isophase",
        description="Exact solvers and threshold calculus for random-graph matching transitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="emit a G(n, p) graph file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("embed", help="induced-subgraph search (pattern into host)")
    _add_graph_source(sp, "pattern", "pattern")
    _add_graph_source(sp, "host", "host")
    sp.add_argument("--count", action="store_true", help="count all embeddings")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("common", help="common induced subgraph of two graphs")
    _add_graph_source(sp, "x", "first")
    _add_graph_source(sp, "y", "second")
    sp.add_argument("--m", type=int, help="target subgraph size (default 1)")
    sp.add_argument("--count", action="store_true")
    sp.add_argument("--max", action="store_true", help="find the maximum size")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_common)

    sp = sub.add_parser("threshold", help="transition sizes and derived constants")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--q", type=float, default=0.5)
    sp.add_argument("--cn", type=float, help="slack constant (default: log log n)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("region", help="admissible-region membership and corner")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("moments", help="exact moments, ratio and bounds")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--q", type=float, default=0.5)
    sp.add_argument("--variant", choices=("embed", "common"), default="common")
    sp.add_argument("--c", type=float, default=0.75, help="split constant")
    sp.add_argument("--first-only", action="store_true", help="skip the pair census")
    sp.add_argument("--decompose", action="store_true", help="per-class ratio breakdown")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("verify", help="run the randomized identity suites")
    sp.add_argument("--suite", choices=("edgegraph", "thresholds", "rado", "all"),
                    default="all")
    sp.add_argument("--pairs", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("experiment", help="run a Monte Carlo sweep from a JSON config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("rado", help="universal-graph queries")
    sp.add_argument("action", choices=tuple(RADO_ARITY))
    sp.add_argument("args", nargs="*")
    sp.add_argument("--adjacent", default="", help="comma list for witness")
    sp.add_argument("--nonadjacent", default="", help="comma list for witness")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_rado)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (IsophaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
