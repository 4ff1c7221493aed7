import json

import pytest

from isophase.cli import main
from isophase.graphs import EdgeLaw, from_text, sample_gnp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "sample", "--n", "12", "--p", "0.5", "--seed", "42",
                         "--out", str(out_path))
    assert code == 0
    g = from_text(out_path.read_text())
    assert g == sample_gnp(EdgeLaw(12, 0.5, 42))


def test_embed_on_files(tmp_path, capsys):
    pattern = tmp_path / "x.txt"
    host = tmp_path / "y.txt"
    pattern.write_text("2\n0 1\n")
    host.write_text("3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "embed", "--pattern", str(pattern), "--host", str(host),
                           "--count", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "4"
    assert payload["complete"] is True


def test_embed_budget_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "embed", "--pattern-n", "8", "--pattern-seed", "1",
                           "--host-n", "20", "--host-seed", "2", "--budget", "3", "--json")
    assert code == 3
    assert json.loads(out)["status"] == "budget-exceeded"


def test_common_max(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "common", "--x-n", "8", "--x-seed", "101",
                           "--y-n", "8", "--y-seed", "202", "--max", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_m"] == 6  # frozen from the subset-pair oracle
    assert payload["conclusive"] is True


def test_threshold_json(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "1024", "--p", "0.5", "--q", "0.5",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["m_star"] - 33.52113437174371) < 1e-6
    assert payload["m_minus"] == 20 and payload["m_plus"] == 22
    assert payload["in_region"] is True


def test_region_outside(capsys):
    code, out, _ = run_cli(capsys, "region", "--p", "0.1", "--q", "0.9")
    assert code == 0
    assert "outside" in out


def test_moments_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "4", "--m", "2", "--p", "0.3",
                           "--q", "0.6", "--decompose", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"]["value"] == pytest.approx(33.12, rel=1e-9)
    assert payload["ratio"]["value"] == pytest.approx(payload["decomposition"]["total"], rel=1e-9)


def test_moments_embed_includes_s_bound(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "5", "--m", "2", "--p", "0.2",
                           "--variant", "embed", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_bound"]["s_total"] >= payload["ratio"]["value"] - 1e-9


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "edgegraph", "--pairs", "500",
                           "--seed", "7")
    assert code == 0
    assert "ok" in out


def test_experiment_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    config = {
        "problem": "common",
        "n_values": [6],
        "m_values": [1, 2],
        "p": 0.5,
        "q": 0.5,
        "trials": 10,
        "master_seed": 4,
        "csv_path": str(csv_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 0
    assert csv_path.read_text().startswith("problem,n,m,p,q,trials")


def test_experiment_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"problem": "embed"}')
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 2
    cfg_path.write_bytes(b'{"problem": "\xff"}')
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 2 and err.startswith("config error: ")


@pytest.mark.parametrize("problem", ["embed", "common"])
@pytest.mark.parametrize("n", [0, -2])
def test_experiment_m_offsets_reject_n_below_one(tmp_path, capsys, problem, n):
    # Offsets are applied to a centre computed from log n.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": problem, "n_values": [n], "m_offsets": [0]}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert (code, out) == (2, "")
    assert err == f"config error: m_offsets need n >= 1, got n={n}\n"


def test_experiment_flagged_invalid_exit_code(tmp_path, capsys):
    config = {
        "problem": "embed",
        "n_values": [24],
        "m_values": [8],
        "p": 0.5,
        "trials": 10,
        "master_seed": 9,
        "node_budget": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 3
    assert "invalid" in err


def test_rado_actions(capsys):
    code, out, _ = run_cli(capsys, "rado", "adjacent", "5", "2", "--json")
    assert code == 0 and json.loads(out)["adjacent"] is True
    code, out, _ = run_cli(capsys, "rado", "decode", "3", "--json")
    assert code == 0 and json.loads(out)["set"] == "{{},{{}}}"
    code, out, _ = run_cli(capsys, "rado", "encode", "{{},{{}}}", "--json")
    assert code == 0 and json.loads(out)["code"] == "3"
    code, out, _ = run_cli(capsys, "rado", "witness", "--adjacent", "0,1",
                           "--nonadjacent", "2", "--json")
    assert code == 0 and json.loads(out)["witness"] == "11"


def test_usage_errors(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "sample", "--n", "5", "--p", "1.5")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("adjacent",),
        ("adjacent", "1"),
        ("adjacent", "1", "2", "3"),
        ("encode",),
        ("encode", "{}", "{}"),
        ("decode",),
        ("decode", "1", "2"),
        ("witness", "1"),
    ],
)
def test_rado_wrong_argument_count(capsys, argv):
    code, out, err = run_cli(capsys, "rado", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: rado {argv[0]} takes ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_moments_workers_flag_removed(capsys):
    code, _, err = run_cli(capsys, "moments", "--n", "4", "--m", "2", "--workers", "2")
    assert code == 2 and "unrecognized arguments: --workers" in err


def test_moments_guard_flag_removed(capsys):
    code, _, err = run_cli(capsys, "moments", "--n", "4", "--m", "2", "--guard", "10")
    assert code == 2 and "unrecognized arguments: --guard" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (("--n", "1000000000", "--m", "40", "--first-only"), "E N = exp(1006.88"),
        (("--n", "12", "--m", "12", "--p", "1e-300", "--q", "0.9999999999999999"),
         "tau_{21,21} underflows to 0"),
        (("--n", "12", "--m", "12", "--p", "0.001", "--q", "0.999"), "(E N)^-2 = exp("),
        (("--n", "1000000", "--m", "14"), "the census of n=1000000, m=14 has more than "),
        (("--n", str(10**16), "--m", "10", "--variant", "embed"),
         f"the pair space of n={10**16}, m=10 exceeds the float range"),
    ],
    ids=["en-overflow", "tau-underflow", "ratio-overflow", "class-bound", "pair-space"],
)
def test_moments_out_of_range_is_one_line(capsys, argv, what):
    # Values that leave the float range and censuses too large to run exit 2
    # with one line; E N's overflow used to be an OverflowError traceback.
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {what}") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, what",
    [
        (("adjacent", "x", "2"), "rado adjacent vertex must be an integer, got 'x'"),
        (("adjacent", "1", "2.5"), "rado adjacent vertex must be an integer, got '2.5'"),
        (("decode", "0x3"), "rado decode code must be an integer, got '0x3'"),
        (("witness", "--adjacent", "1,a"), "--adjacent entry must be an integer, got 'a'"),
        (("witness", "--nonadjacent", "b"), "--nonadjacent entry must be an integer, got 'b'"),
    ],
)
def test_rado_rejects_non_integer_arguments(capsys, argv, what):
    code, out, err = run_cli(capsys, "rado", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {what}\n"


def test_main_lets_bugs_surface(monkeypatch):
    # Only package errors and OS errors are input problems; any other
    # exception is a bug and must not be turned into exit code 2.
    import isophase.cli as cli

    def broken(args):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "cmd_region", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["region", "--p", "0.3", "--q", "0.4"])


@pytest.mark.parametrize(
    "argv, what",
    [
        (("moments", "--n", "2000", "--m", "1000", "--first-only"), "the pair space of n=2000, m=1000"),
        (("rado", "encode", "{{{{{{{}}}}}}}"), "the code"),
        (("rado", "witness", "--adjacent", "20000"), "the witness"),
        (("moments", "--n", "1000000", "--m", "200000", "--first-only"),
         "the pair space of n=1000000, m=200000"),
        (("moments", "--n", "1000000", "--m", "200000", "--first-only", "--variant", "embed"),
         "the pair space of n=1000000, m=200000"),
        (("moments", "--n", str(10**20), "--m", "1000000", "--first-only", "--variant", "embed"),
         f"the pair space of n={10**20}, m=1000000"),
    ],
)
def test_integers_too_long_to_print(capsys, monkeypatch, argv, what):
    # A huge pair space is rejected from a bound, before its exact product,
    # which for m = 200000 takes tens of seconds, is ever computed.
    from isophase import moments

    exact = moments.falling_factorial

    def small_only(n, m):
        assert m <= 10**4, f"exact falling factorial ({n})_{m} computed"
        return exact(n, m)

    monkeypatch.setattr(moments, "falling_factorial", small_only)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {what} has more than ") and len(err.splitlines()) == 1
