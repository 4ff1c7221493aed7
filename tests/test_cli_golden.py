"""Golden command-line outputs: stdout, stderr and exit code, byte for byte.

Each case in `cli_golden.json` is an argv for `isophase`, the files it needs
(`inputs`, written to a fresh directory that `{tmp}` in argv and in the
outputs stands for), and what the command printed, returned and wrote
(`files`).  The cases cover every subcommand in plain and `--json` form, the
budget paths (exit 3) of `embed` and `common`, usage errors (exit 2) and
sweeps that write CSV and JSONL, whose `wall_ms` column is masked to 0.
Plain output lists payload keys in insertion order, so these cases also pin
the key order of every payload.

The values change only in a change that says so, and why, in CHANGES.md.

The exit-0 cases also seed a check of the flag rule: each variant that adds
one more flag must exit 0 having read it, or exit 2 with one `error:` line.
"""

import argparse
import json
import os
import re

import pytest

from isophase import cli
from isophase.cli import main

CASES = json.loads(
    open(os.path.join(os.path.dirname(__file__), "cli_golden.json"), encoding="utf-8").read()
)


def _mask_wall_ms(name: str, text: str) -> str:
    if name.endswith(".jsonl"):
        return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)
    if name.endswith(".csv"):
        lines = text.split("\n")
        idx = lines[0].split(",").index("wall_ms")
        rows = [ln.split(",") for ln in lines[1:]]
        for parts in rows:
            if len(parts) > idx:
                parts[idx] = "0"
        return "\n".join([lines[0], *(",".join(parts) for parts in rows)])
    return text


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_cli_output_is_unchanged(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage errors to the terminal width
    tmp = str(tmp_path)
    inputs = case.get("inputs", {})
    for name, text in inputs.items():
        (tmp_path / name).write_text(text.replace("{tmp}", tmp), encoding="utf-8")
    code = main([arg.replace("{tmp}", tmp) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert code == case["code"]
    assert captured.out.replace(tmp, "{tmp}") == case["out"]
    assert captured.err.replace(tmp, "{tmp}") == case["err"]
    written = sorted(set(os.listdir(tmp)) - set(inputs))
    assert written == sorted(case.get("files", {}))
    for name in written:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert _mask_wall_ms(name, text) == case["files"][name], name


# A valid value for every option of the subcommands that the flag rule test
# covers (store_true flags take none); a new option needs an entry here.
FLAG_VALUES = {
    "--n": "6", "--m": "3", "--p": "0.5", "--q": "0.5", "--seed": "1", "--cn": "1.5",
    "--out": "{tmp}/flag-out.txt", "--budget": "100000000", "--variant": "embed", "--c": "0.75",
    "--adjacent": "0,1", "--nonadjacent": "2",
}
for _prefix in ("pattern", "host", "x", "y"):
    FLAG_VALUES.update({f"--{_prefix}": "{tmp}/flag-graph.txt", f"--{_prefix}-n": "8",
                        f"--{_prefix}-p": "0.5", f"--{_prefix}-seed": "1"})
FLAG_CASES = [case for case in CASES
              if case["code"] == 0 and case["argv"][0] not in ("verify", "experiment")]


def _options(command: str) -> list[argparse.Action]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("case", FLAG_CASES, ids=[" ".join(case["argv"]) for case in FLAG_CASES])
def test_every_given_flag_is_read_or_rejected(case, tmp_path, capsys, monkeypatch):
    # Each variant of an exit-0 case with one more flag either exits 0 and its
    # command read the flag off args, or exits 2 with one line and no output:
    # no flag is silently ignored.
    command = case["argv"][0]
    reads: set = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    run = getattr(cli, f"cmd_{command}")
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: run(Recording(**vars(args))))
    tmp = str(tmp_path)
    for name, text in {**case.get("inputs", {}), "flag-graph.txt": "3\n0 1\n"}.items():
        (tmp_path / name).write_text(text.replace("{tmp}", tmp), encoding="utf-8")
    for action in _options(command):
        flag = action.option_strings[-1]
        if flag in case["argv"]:
            continue
        extra = [flag] if action.nargs == 0 else [flag, FLAG_VALUES[flag]]
        reads.clear()
        code = main([arg.replace("{tmp}", tmp) for arg in case["argv"] + extra])
        out, err = capsys.readouterr()
        if code == 0:
            assert action.dest in reads, extra
        else:
            assert code == 2 and out == "", extra
            assert err.startswith("error: ") and err.count("\n") == 1, (extra, err)
