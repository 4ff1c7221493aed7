"""Fuzz the command line: any argv from a bounded grammar exits 0, 2 or 3.

The grammar covers every subcommand with small sizes, budgets of at most
10^4, and malformed numbers, graph files and experiment configs, so no
example starts a long enumeration.  Exit code 1 (property-suite failure)
and any exception escaping `main` are failures.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isophase.cli import main

JUNK = st.sampled_from(["", "x", "1.5", "nan", "inf", "-inf", "1e3", "0x1f", "--", "9" * 5000])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def probs():
    special = st.sampled_from(["0.0", "1.0", "1.5", "nan", "inf", "1e-300"])
    return st.one_of(*[st.floats(0.01, 0.99).map(str)] * 3, special)


def opt(flag, values):
    """Either nothing or [flag, value]."""
    return st.just([]) | req(flag, values)


def req(flag, values):
    return values.map(lambda v: [flag, v])


def flag(name):
    return st.sampled_from([[], [name]])


def cat(*parts):
    return st.tuples(*parts).map(lambda groups: [tok for group in groups for tok in group])


GRAPH_TEXT = st.sampled_from([
    "3\n0 1\n1 2\n",
    "2\n0 1\n",
    "1\n",
    "0\n",
    "",
    "3\n0 1\n0 1\n",      # repeated edge
    "3\n1 0\n",           # reversed edge
    "3\n0 7\n",           # out of range
    "3\n0 x\n",           # non-integer token
    "three\n",
    "3 4\n",
    "-2\n",
    "99999999999\n",
    "4\n0 1 2\n",
    b"3\n\xff\xfe\n",    # not UTF-8
])


def graph_source(prefix, max_n):
    """Sampling flags, a FILE, or a FILE with sampling flags it does not read."""
    n = req(f"--{prefix}-n", ints(-1, max_n))
    p_seed = cat(opt(f"--{prefix}-p", probs()), opt(f"--{prefix}-seed", ints(-2, 50)))
    from_file = GRAPH_TEXT.map(lambda text: [f"--{prefix}", ("file", text)])
    return cat(n, p_seed) | from_file | cat(from_file, st.just([]) | n, p_seed)


BUDGET = opt("--budget", ints(-1, 10**4))

SAMPLE = cat(
    st.just(["sample"]),
    req("--n", ints(-2, 40)),
    req("--p", probs()),
    opt("--seed", ints(-2, 99)),
    st.sampled_from([[], ["--out", ("out", "g.txt")], ["--out", ("out", "missing/g.txt")]]),
)
EMBED = cat(
    st.just(["embed"]), graph_source("pattern", 6), graph_source("host", 10),
    flag("--count"), BUDGET, flag("--json"),
)
COMMON = cat(
    st.just(["common"]), graph_source("x", 8), graph_source("y", 8),
    opt("--m", ints(-1, 9)), st.sampled_from([[], ["--count"], ["--max"]]), BUDGET,
    flag("--json"),
)
THRESHOLD = cat(
    st.just(["threshold"]), req("--n", ints(-2, 10**6)), opt("--p", probs()),
    opt("--q", probs()), opt("--cn", probs() | ints(-3, 30)), flag("--json"),
)
REGION = cat(st.just(["region"]), req("--p", probs()), req("--q", probs()), flag("--json"))
MOMENTS = cat(
    st.just(["moments"]), req("--n", ints(-1, 6)), req("--m", ints(-1, 7)),
    opt("--p", probs()), opt("--q", probs()),
    opt("--variant", st.sampled_from(["embed", "common", "both"])),
    opt("--c", probs() | ints(-2, 3)),
    flag("--first-only"), flag("--decompose"), flag("--json"),
)
VERIFY = cat(
    st.just(["verify"]),
    opt("--suite", st.sampled_from(["edgegraph", "thresholds", "rado", "all", "none"])),
    req("--pairs", ints(-2, 40)),  # the default is 10^4 pairs
    opt("--seed", ints(-2, 99)), flag("--json"),
)

CONFIG_VALUES = {
    "problem": st.sampled_from(["embed", "common", "both", 3, None]),
    "n_values": st.lists(st.integers(-1, 10), max_size=3) | st.sampled_from([8, ["8"], [True], None]),
    "m_values": st.lists(st.integers(-1, 11), max_size=3) | st.sampled_from([2, [2.0], None]),
    "m_offsets": st.lists(st.integers(-3, 3), max_size=3) | st.sampled_from([[True], "0"]),
    "p": st.floats(0.05, 0.95) | st.sampled_from([0, 1, -1, "0.5", True, None]),
    "q": st.floats(0.05, 0.95) | st.sampled_from([0, 1.5, "0.5", None]),
    "trials": st.integers(-1, 5) | st.sampled_from(["5", 5.0, True]),
    "master_seed": st.integers(-5, 99) | st.sampled_from([None, "1"]),
    "node_budget": st.integers(-1, 10**4) | st.sampled_from([1e6, False]),
    "csv_path": st.sampled_from([("out", "s.csv"), ("out", "missing/s.csv"), 5]),
    "jsonl_path": st.sampled_from([("out", "s.jsonl"), None, ["x"]]),
    "workers": st.sampled_from([1, 2]),
    "bogus": st.just(1),
}
# A small config with either m_values or m_offsets (n = 0 is drawn too, which
# m_offsets reject), with some keys replaced by drawn (possibly bad) values.
CONFIG = st.builds(
    lambda base, sizes, overrides: {**base, **sizes, **overrides},
    st.fixed_dictionaries({
        "problem": st.sampled_from(["embed", "common"]),
        "n_values": st.lists(st.integers(0, 10), min_size=1, max_size=2),
        "trials": st.integers(1, 4),
        "node_budget": st.integers(1, 10**4),
    }),
    st.fixed_dictionaries({"m_values": st.lists(st.integers(0, 10), min_size=1, max_size=3)})
    | st.fixed_dictionaries({"m_offsets": st.lists(st.integers(-3, 3), min_size=1, max_size=3)}),
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
)
CONFIG_TEXT = CONFIG | st.sampled_from(
    ["{not json", "[]", "null", '"embed"', "", '{"trials": %s}' % ("9" * 5000), b"{\xff}"]
)
EXPERIMENT = cat(
    st.just(["experiment"]),
    st.sampled_from([["--config", ("out", "missing.json")], ["--workers", "2"], []])
    | CONFIG_TEXT.map(lambda cfg: ["--config", ("config", cfg)]),
)

SET_LITERAL = st.sampled_from(
    ["{}", "{{},{{}}}", "{{", "{}}", "{{}", "{" * 7 + "}" * 7, "{" * 9 + "}" * 9]
)
# Every action draws the witness's constraint lists, which only witness reads.
CONSTRAINTS = cat(
    opt("--adjacent", st.sampled_from(["", "0,1", "1,x", "-1", "3,,4", "2", "20000"])),
    opt("--nonadjacent", st.sampled_from(["", "2", "1", "a", "5,6"])),
)
RADO = st.one_of(
    cat(st.just(["rado", "adjacent"]), st.tuples(ints(-2, 40), ints(-2, 40)).map(list)),
    cat(st.just(["rado", "encode"]), SET_LITERAL.map(lambda text: [text])),
    cat(st.just(["rado", "decode"]), ints(-2, 10**6).map(lambda text: [text])),
    st.just(["rado", "witness"]),
).flatmap(lambda argv: cat(CONSTRAINTS, flag("--json")).map(lambda tail: argv + tail))

NOISE = st.lists(st.sampled_from(["frobnicate", "--help", "-h", "--json", "embed", "--n", "3"]),
                 max_size=3)

GRAMMARS = {
    "sample": SAMPLE, "embed": EMBED, "common": COMMON, "threshold": THRESHOLD,
    "region": REGION, "moments": MOMENTS, "verify": VERIFY, "experiment": EXPERIMENT,
    "rado": RADO, "noise": NOISE,
}


def _materialize(token, workdir):
    """Turn ("file"|"config"|"out", payload) placeholders into paths under workdir."""
    if not isinstance(token, tuple):
        return token
    kind, payload = token
    if kind == "out":
        return os.path.join(workdir, payload)
    path = os.path.join(workdir, f"in{len(os.listdir(workdir))}.txt")
    if kind == "config":
        if isinstance(payload, dict):
            payload = json.dumps({key: _materialize(value, workdir) for key, value in payload.items()})
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return path


@pytest.mark.parametrize("command", GRAMMARS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_and_no_traceback(command, data):
    argv = data.draw(GRAMMARS[command], label="argv")
    if len(argv) > 1 and data.draw(st.booleans(), label="corrupt"):
        at = data.draw(st.integers(1, len(argv) - 1), label="at")
        argv[at] = data.draw(JUNK, label="junk")
    with tempfile.TemporaryDirectory() as workdir:
        args = [_materialize(token, workdir) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
