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
"""

import json
import os
import re

import pytest

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
