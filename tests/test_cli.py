"""CLI surface: subcommands, spec grammar, exit codes, report files."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from submemo.bench.cli import EXIT_CHECK_FAILED, build_parser, cli_main, load_function_spec
from submemo.bench.cli import _json_default as cli_json_default
from submemo.bench.dataio import save_dense_matrix, save_set_system
from submemo.bench import cli as cli_module
from submemo.bench import runner
from submemo.bench.runner import GRADIENT_TASKS, instance_for, run_gradient, run_metadata
from submemo.constrained import ds_minimize, scsc_solve, scsk_solve
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


@pytest.mark.parametrize("mode", ["pm", "vo"])
def test_cli_maximize_json_output(mode, tmp_path, capsys):
    # PM reads gains off the statistic, VO calls the oracle: same picks, disjoint counters
    spec = "synthetic:setcover,n=30,seed=3"
    argv = ["maximize", "--function", spec, "--algorithm", "lazy-greedy", "--k", "5",
            "--mode", mode, "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    payload = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert payload["k"] == 5 and payload["mode"] == mode
    assert len(payload["selected"]) <= 5
    _, data = load_function_spec(spec)
    pm = runner.ALGORITHMS["lazy-greedy"](instance_for(make_function(30, data), "pm"), 5, None)
    assert payload["selected"] == pm.members
    zero = "oracle_evals" if mode == "pm" else "gain_evals"
    assert payload["counters"][zero] == 0


def test_cli_maximize_reports_the_algorithm_stats(capsys):
    # lazy greedy counts the first round's n gains, then one count per pick
    spec = "synthetic:faclocation,n=30,seed=3"
    assert cli_main(["maximize", "--function", spec, "--algorithm", "lazy-greedy", "--k", "5"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert len(stats["recomputes_per_round"]) == 6
    assert stats["recomputes_per_round"][0] == 30
@pytest.mark.parametrize(
    "argv, run",
    [
        (["maximize", "--function", "synthetic:setcover,n=30,seed=3", "--k", "5", "--seed", "4"],
         {"n": 30, "seed": 4}),
        (["minimize", "--function", "synthetic:graphcut,n=12,seed=1"], {"n": 12}),
        (["ds-min", "--function", "synthetic:setcover,n=14,seed=1",
          "--function-g", "synthetic:faclocation,n=14,seed=2"], {"n": 14}),
        (["gradients", "--function", "synthetic:satcov,n=16,seed=2", "--seed", "5"],
         {"n": 16, "seed": 5}),
    ],
)
def test_cli_json_carries_run_metadata(argv, run, tmp_path, capsys):
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert printed == written
    assert written["meta"] == {**run_metadata(), **run}


_SHA = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize(
    "files, sha",
    [
        ({}, None),  # not a checkout
        ({"HEAD": _SHA + "\n"}, _SHA),  # detached
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": _SHA + "\n"}, _SHA),
        ({"HEAD": "ref: refs/heads/main\n",
          "packed-refs": f"# pack-refs with: peeled\n{'f' * 40} refs/heads/other\n{_SHA} refs/heads/main\n"},
         _SHA),
        ({"HEAD": "ref: refs/heads/main\n"}, None),  # a branch with no commit yet
    ],
)
def test_run_metadata_reads_the_sha_from_git(files, sha, tmp_path, monkeypatch):
    for name, text in files.items():
        path = tmp_path / ".git" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(runner, "_CHECKOUT", tmp_path)
    meta = run_metadata()
    assert meta["git_sha"] == sha
    assert meta["numpy"] == np.__version__
    assert meta["python"] == ".".join(map(str, sys.version_info[:3]))


def test_cli_builds_a_mixture_from_the_spec_size(capsys):
    # a mixture's data object has no n of its own: the spec gives it
    spec = "synthetic:mixture,n=14"
    _, data = load_function_spec(spec)
    F = make_function(14, data)
    assert cli_main(["maximize", "--function", spec, "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["selected"]) == 3
    assert payload["value"] == pytest.approx(F.evaluate(payload["selected"]))
    assert cli_main(["maximize", "--function", spec, "--k", "3", "--mode", "vo"]) == 0
    assert json.loads(capsys.readouterr().out)["selected"] == payload["selected"]


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


def _json(x):
    """``x`` as the CLI writes it."""
    return json.loads(json.dumps(x, default=cli_json_default))


@pytest.mark.parametrize("algorithm", ["min-norm-point", "lovasz-descent", "mmin"])
def test_cli_minimize_reports_the_solver_stats(algorithm, capsys):
    spec = "synthetic:graphcut,n=12,seed=1"
    assert cli_main(["minimize", "--function", spec, "--algorithm", algorithm, "--k", "3"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    _, data = load_function_spec(spec)
    want = runner.ALGORITHMS[algorithm](instance_for(make_function(12, data), "pm"), 3, None).stats
    assert stats == _json(want)


PAIR = ["--function", "synthetic:featurebased,n=14,seed=4",
        "--function-g", "synthetic:setcover,n=14,seed=5"]


@pytest.mark.parametrize("command, flags, solve", [
    ("scsc", ["--c", "2.0"], lambda f, g: scsc_solve(f, g, 2.0, 50)),
    ("scsk", ["--b", "1.5"], lambda f, g: scsk_solve(f, g, 1.5, 50)),
    ("ds-min", ["--variant", "mod-mod"], lambda f, g: ds_minimize(f, g, "mod-mod", 50)),
    ("ds-min", ["--variant", "sup-sub"], lambda f, g: ds_minimize(f, g, "sup-sub", 50)),
])
def test_cli_pair_commands_report_the_solver_stats(command, flags, solve, capsys):
    assert cli_main([command, *PAIR, *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    f, g = (instance_for(make_function(14, load_function_spec(spec)[1]), "pm") for spec in PAIR[1::2])
    want = solve(f, g)
    assert payload["selected"] == want.members
    assert payload["stats"] == _json(want.stats)


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


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param("setcover,n=abc", id="n=abc"),
        pytest.param("setcover,seed=x", id="seed=x"),
        pytest.param("setcover,n=2.5", id="n=2.5"),
        "faclocation,n=12,dimm=2",  # a key the kind does not read
        "faclocation,n=12,dim=abc",
        "setcover,n=12,density=x",
        "mixture,n=12,dim=4",  # the mixture reads only components and sub_params
        "setcover,n=12,n=5",  # a key given twice
    ],
)
def test_cli_malformed_synthetic_number_is_an_input_error(spec, capsys):
    assert cli_main(["maximize", "--function", f"synthetic:{spec}"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, key",
    [
        ("setcover,n=12,density=1.5", "density"),
        ("probsetcover,n=12,density=-0.1", "density"),
        ("deep2,n=12,density=nan", "density"),
        ("faclocation,n=12,dim=0", "dim"),
        ("setcover,n=12,universe=0", "universe"),
        ("clustersetcover,n=12,clusters=0", "clusters"),
        ("deep2,n=12,inner_units=0", "inner_units"),
    ],
)
def test_cli_out_of_range_synthetic_parameter_is_an_input_error(spec, key, capsys):
    # each of these crashed in numpy or built a degenerate instance that exited 0
    assert cli_main(["maximize", "--function", f"synthetic:{spec}"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"parameter {key} must lie in" in err


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


def read_dests(source: str) -> set:
    """The names ``source`` reads off ``args``: ``args.x`` or ``getattr(args, "x", ...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                found.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
            obj, name = (node.args + [None, None])[:2]
            if isinstance(obj, ast.Name) and obj.id == "args" and isinstance(name, ast.Constant):
                found.add(name.value)
    return found


def unread_options(parser: argparse.ArgumentParser, source: str) -> list:
    """``"<command> <flag>"`` for each subcommand option whose dest ``source`` never reads."""
    reads = read_dests(source)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(
        f"{name} {a.option_strings[-1]}"
        for name, sub in commands.choices.items()
        for a in sub._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction) and a.dest not in reads
    )


def test_unread_options_are_found():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("run")
    p.add_argument("--x")
    p.add_argument("--y-z", dest="y_z")
    p.add_argument("--w")
    source = "def f(args, other):\n    return args.x, getattr(args, 'y_z', 0), other.w, getattr(other, 'w')\n"
    assert unread_options(parser, source) == ["run --w"]
    assert unread_options(parser, source + "args.w\n") == []


def test_every_option_is_read():
    source = Path(cli_module.__file__).read_text(encoding="utf-8")
    assert unread_options(build_parser(), source) == []
