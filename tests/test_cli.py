"""CLI surface: subcommands, spec grammar, exit codes, report files."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from submemo.bench.cli import EXIT_CHECK_FAILED, build_parser, cli_main, load_function_spec
from submemo.bench.dataio import save_dense_matrix, save_set_system
from submemo.bench.runner import GRADIENT_TASKS, instance_for, run_gradient
from submemo.core import InputError
from submemo.functions import (
    FacilityLocationData,
    GraphCutData,
    SetCoverData,
    make_function,
)


def test_load_function_spec_synthetic():
    name, data = load_function_spec("synthetic:faclocation,n=25,seed=7")
    assert name == "faclocation-n25"
    assert isinstance(data, FacilityLocationData)
    assert data.n == 25


def test_load_function_spec_files(tmp_path):
    dense = tmp_path / "sim.csv"
    save_dense_matrix(dense, np.array([[0.0, 1.0], [1.0, 0.0]]))
    name, data = load_function_spec(f"graphcut:{dense}")
    assert isinstance(data, GraphCutData)
    _, default = load_function_spec(str(dense))
    assert isinstance(default, FacilityLocationData)  # bare dense CSV default
    system = tmp_path / "sys.json"
    save_set_system(system, SetCoverData(sets=[[0], [1]], universe=2))
    _, sysdata = load_function_spec(str(system))
    assert isinstance(sysdata, SetCoverData)


def test_load_function_spec_triplets(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("triplet n=3 buckets=2\n0,0,1.0\n1,2,2.0\n", encoding="utf-8")
    _, data = load_function_spec(str(path))
    from submemo.functions import FeatureBasedData

    assert isinstance(data, FeatureBasedData)
    assert data.n == 3


def test_load_function_spec_errors(tmp_path):
    with pytest.raises(InputError):
        load_function_spec("synthetic:nope,n=5")
    with pytest.raises(InputError):
        load_function_spec(str(tmp_path / "missing.csv"))
    dense = tmp_path / "sim.csv"
    save_dense_matrix(dense, np.eye(2))
    with pytest.raises(InputError):
        load_function_spec(f"wrongclass:{dense}")


def test_cli_bench_smoke(tmp_path, capsys):
    out = tmp_path / "runs"
    code = cli_main(
        [
            "bench",
            "--function",
            "synthetic:faclocation,n=50,seed=7",
            "--algorithm",
            "lazy-greedy",
            "--mode",
            "both",
            "--budgets",
            "0.05,0.1",
            "--reps",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "report.csv").exists()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["records"]
    for record in report["records"]:
        if record["mode"] == "pm":
            assert record["counters"]["oracle_evals"] == 0
        else:
            assert record["counters"]["gain_evals"] == 0


def test_cli_maximize_json_output(tmp_path, capsys):
    code = cli_main(
        [
            "maximize",
            "--function",
            "synthetic:setcover,n=30,seed=3",
            "--algorithm",
            "lazy-greedy",
            "--k",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert payload["k"] == 5
    assert len(payload["selected"]) <= 5
    assert payload["counters"]["oracle_evals"] == 0


def test_cli_builds_a_mixture_from_the_spec_size(tmp_path, capsys):
    # a mixture's data object has no n of its own: the spec gives it
    spec = "synthetic:mixture,n=14"
    _, data = load_function_spec(spec)
    F = make_function(14, data)
    assert cli_main(["maximize", "--function", spec, "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["selected"]) == 3
    assert payload["value"] == pytest.approx(F.evaluate(payload["selected"]))
    out = tmp_path / "runs"
    assert cli_main(["bench", "--function", spec, "--mode", "both", "--budgets", "0.2",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert {r["mode"] for r in report["records"]} == {"pm", "vo"}


def test_cli_minimize_and_nonconvergence_exit_code(capsys):
    code = cli_main(
        [
            "minimize",
            "--function",
            "synthetic:graphcut,n=16,seed=5,lam=0.5",
            "--algorithm",
            "min-norm-point",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "minimizer_min" in payload and "duality_gap" in payload


def test_cli_gradients_pm_vo_weights_match(capsys):
    code = cli_main(
        ["gradients", "--function", "synthetic:satcov,n=24,seed=2", "--mode", "both"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weights_match"] is True
    pm = payload["runs"]["pm"]["subgradient_counters"]
    vo = payload["runs"]["vo"]["subgradient_counters"]
    assert pm["oracle_evals"] == 0 and pm["gain_evals"] == 24
    assert vo["gain_evals"] == 0 and vo["oracle_evals"] >= 24


def test_cli_scsc_scsk_dsmin(capsys):
    base = ["--function", "synthetic:featurebased,n=14,seed=4", "--function-g",
            "synthetic:setcover,n=14,seed=5"]
    assert cli_main(["scsc", *base, "--c-frac", "0.5"]) == 0
    assert cli_main(["scsk", *base, "--b-frac", "0.4"]) == 0
    assert cli_main(["ds-min", *base, "--variant", "mod-mod"]) == 0


def test_cli_validate(capsys):
    code = cli_main(
        ["validate", "--function", "synthetic:faclocation,n=18,seed=1", "--audit-rounds", "60"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_validate_fail_exit_code(capsys):
    # dispersion-min is not submodular, so the diminishing-returns audit fails
    code = cli_main(["validate", "--function", "synthetic:dispmin,n=20"])
    assert "submodularity-audit  FAIL" in capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED


def test_cli_bench_cell_error_exit_code(tmp_path, capsys):
    # four machines over a three-element ground set: that cell errors
    out = tmp_path / "runs"
    code = cli_main(
        [
            "bench",
            "--function",
            "synthetic:faclocation,n=3,seed=1",
            "--function",
            "synthetic:dispmin,n=10,seed=11",
            "--algorithm",
            "distributed-greedy",
            "--mode",
            "pm",
            "--budgets",
            "0.9",
            "--reps",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_CHECK_FAILED
    assert "cell error: faclocation-n3" in capsys.readouterr().err
    records = json.loads((out / "report.json").read_text(encoding="utf-8"))["records"]
    assert [r["error"] is not None for r in records] == [True, False]


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "submemo", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: submemo" in proc.stdout


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["maximize", "--no-such-flag"]) == 2
    assert cli_main(["nonsense-command"]) == 2
    # input error from a bad file
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage", encoding="utf-8")
    assert cli_main(["maximize", "--function", str(bad)]) == 2
    # infeasible constraint is an input error
    assert (
        cli_main(["maximize", "--function", "synthetic:setcover,n=5,seed=1", "--k", "50"]) == 2
    )


@pytest.mark.parametrize(
    "command, flags",
    [
        ("maximize", ["--k", "0"]),
        ("maximize", ["--budget-frac", "0"]),
        ("maximize", ["--budget-frac", "1.5"]),
        ("minimize", ["--k", "0"]),
    ],
)
def test_cli_out_of_range_budget_is_an_input_error(command, flags, capsys):
    argv = [command, "--function", "synthetic:setcover,n=30,seed=3", *flags]
    assert cli_main(argv) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["n=abc", "seed=x", "n=2.5"])
def test_cli_malformed_synthetic_number_is_an_input_error(spec, capsys):
    assert cli_main(["maximize", "--function", f"synthetic:setcover,{spec}"]) == 2
    assert "input error" in capsys.readouterr().err


_PAIR = ["--function", "synthetic:setcover,n=12", "--function-g", "synthetic:faclocation,n=12"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scsc", *_PAIR, "--max-iters", "0"],
        ["scsk", *_PAIR, "--max-iters", "0"],
        ["ds-min", *_PAIR, "--max-iters", "-1"],
        ["validate", "--function", "synthetic:setcover,n=12", "--audit-rounds", "0"],
        ["validate", "--function", "synthetic:setcover,n=12", "--audit-rounds", "-3"],
    ],
)
def test_cli_count_below_one_is_an_input_error(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 1" in captured.err


def test_cli_malformed_bench_budget_is_an_input_error(tmp_path, capsys):
    argv = ["bench", "--function", "synthetic:setcover,n=10", "--budgets", "0.1,abc",
            "--out", str(tmp_path)]
    assert cli_main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_option_surface():
    # pins each subcommand's options, so adding or dropping a flag is a deliberate edit
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert surface == {
        "maximize": ["--algorithm", "--budget-frac", "--function", "--k", "--mode", "--out",
                     "--seed"],
        "minimize": ["--algorithm", "--budget-frac", "--function", "--k", "--mode", "--out"],
        "scsc": ["--c", "--c-frac", "--function", "--function-g", "--max-iters", "--mode",
                 "--out"],
        "scsk": ["--b", "--b-frac", "--function", "--function-g", "--max-iters", "--mode",
                 "--out"],
        "ds-min": ["--function", "--function-g", "--max-iters", "--mode", "--out", "--variant"],
        "gradients": ["--function", "--mode", "--out", "--seed"],
        "bench": ["--algorithm", "--budgets", "--function", "--mode", "--out", "--reps",
                  "--seed"],
        "validate": ["--audit-rounds", "--function", "--seed"],
    }


def test_cli_gradients_use_the_runner_rule(capsys):
    spec = "synthetic:faclocation,n=20,seed=4"
    assert cli_main(["gradients", "--function", spec, "--seed", "7"]) == 0
    weights = json.loads(capsys.readouterr().out)["weights"]
    _, data = load_function_spec(spec)
    base = make_function(data.n, data)
    for mode in ("pm", "vo"):
        for task in GRADIENT_TASKS:
            expected = run_gradient(instance_for(base, mode), task, 7).weights.tolist()
            assert weights[mode][task] == expected, (mode, task)
