import json
import logging
import math
import os
import stat
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from chiralflow import cli, commands, dynamics
from chiralflow.errors import ConfigError, NoPeaks


def run_cli(args):
    return cli.main(args)


def test_parse_angle():
    assert cli.parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    assert cli.parse_angle("-0.5pi") == pytest.approx(-math.pi / 2)
    assert cli.parse_angle("pi") == pytest.approx(math.pi)
    assert cli.parse_angle("1.5") == 1.5
    with pytest.raises(ConfigError):
        cli.parse_angle("half a pie")


def test_config_round_trip():
    cfg = cli.RunConfig(model="asgf", n=4, beta=2.0, tmax="1pi", grid=101)
    assert cli.RunConfig.from_dict(asdict(cfg)) == cfg
    assert cli.RunConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({"model": "sgf", "n": 3, "bogus": 1})


def test_simulate_writes_csv_and_svg(tmp_path):
    out = tmp_path / "run.csv"
    svg = tmp_path / "run.svg"
    code = run_cli(["simulate", "--model", "asgf", "--n", "4", "--beta", "2",
                    "--tmax", "1pi", "--grid", "201",
                    "--out", str(out), "--svg", str(svg)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,node_1,node_2,node_3,node_4,aux_1"
    assert len(lines) == 202
    chart = svg.read_text()
    assert chart.startswith("<svg") and chart.rstrip().endswith("</svg>")
    assert "node_3" in chart


def test_simulate_reproduces_three_node_flow(tmp_path):
    out = tmp_path / "three.csv"
    code = run_cli(["simulate", "--model", "sgf", "--n", "3", "--flux", "0.5pi",
                    "--tmax", "1.2091995761561452", "--grid", "101",
                    "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    final = [float(x) for x in rows[-1].split(",")]
    assert final[2] == pytest.approx(1.0, abs=1e-6)  # node 2 holds the excitation


def test_malformed_flux_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = run_cli(["simulate", "--model", "sgf", "--n", "3",
                    "--flux", "0.5tau", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--svg"])
@pytest.mark.parametrize("target", ["missing directory", "existing directory"])
def test_unwritable_output_exits_2_without_temp_files(flag, target, tmp_path, capsys):
    # A missing directory fails in mkstemp, a directory at the path in the
    # rename; either is a configuration error, not a false verdict (exit 1).
    (tmp_path / "taken").mkdir()
    bad = tmp_path / ("nodir/x" if target == "missing directory" else "taken")
    paths = {"--out": tmp_path / "run.csv", "--svg": tmp_path / "run.svg", flag: bad}
    code = run_cli(["simulate", "--model", "asgf", "--n", "4", "--grid", "11",
                    "--out", str(paths["--out"]), "--svg", str(paths["--svg"])])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {bad}: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".chiralflow-*"))
    assert not list((tmp_path / "taken").iterdir())
    # Each file is written whole or not at all: a failing --svg leaves the CSV.
    assert (tmp_path / "run.csv").exists() == (flag == "--svg")
    assert not (tmp_path / "run.svg").exists()


def test_output_files_get_the_mode_open_would_leave(tmp_path):
    # A new file gets 0o666 less the umask, an overwritten one keeps its mode.
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("stale\n")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for out in (new, old):
            assert run_cli(["spectrum", "--model", "sgf", "--n", "3", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert old.read_text().startswith("index,eigenvalue\n")


def test_bad_bit_pattern_exits_2(tmp_path):
    code = run_cli(["simulate", "--model", "sgf", "--n", "3", "--init", "10",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_criteria_exit_codes(capsys):
    assert run_cli(["criteria", "--model", "sgf", "--n", "3", "--flux", "1.5pi"]) == 0
    capsys.readouterr()
    assert run_cli(["criteria", "--model", "sgf", "--n", "5", "--flux", "2.5pi"]) == 1
    output = capsys.readouterr().out
    assert "equally_spaced: false" in output
    assert run_cli(["criteria", "--model", "chiral", "--n", "6"]) == 0
    assert run_cli(["criteria", "--model", "chiral", "--n", "9"]) == 0


def test_spectrum_output(capsys):
    assert run_cli(["spectrum", "--model", "sgf", "--n", "3", "--flux", "0.5pi"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)], abs=1e-9)


def test_config_file_input(tmp_path, capsys):
    config = {"model": "sgf", "n": 3, "flux": "1.5pi", "tmax": "0.1pi", "grid": 11}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(path)]) == 0
    header = capsys.readouterr().out.split("\n")[0]
    assert header == "t,node_1,node_2,node_3"


@pytest.mark.parametrize("config", [
    pytest.param({"n": "3"}, id="n-string"),
    pytest.param({"n": 3.0}, id="n-float"),
    pytest.param({"model": "ladder", "n": True}, id="n-bool"),
    pytest.param({"grid": 2.5}, id="grid-float"),
    pytest.param({"grid": True}, id="grid-bool"),
    pytest.param({"beta": "2"}, id="beta-string"),
    pytest.param({"init": 1}, id="init-number"),
    pytest.param({"svg": 5}, id="svg-number"),
])
def test_config_wrong_json_type_exits_2_without_output(config, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never.csv"
    assert run_cli(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_config_flags_override_the_file_before_validation(tmp_path, capsys):
    # The file is validated only after the flags are merged into it, so a
    # flag mends a value the file gets wrong; the file alone still fails.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": "sgf", "n": 3, "tmax": "0.1pi", "grid": 1}))
    assert run_cli(["simulate", "--config", str(path), "--grid", "10"]) == 0
    assert capsys.readouterr().out.count("\n") == 11
    assert run_cli(["simulate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    # Type errors and unknown keys in the file stand whatever the flags say.
    for config in ({"n": "3"}, {"bogus": 1}):
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(path), "--grid", "11"]) == 2
        assert "config error" in capsys.readouterr().err


def test_config_accepts_numbers_for_angles_and_profile(tmp_path, capsys):
    config = {"model": "asgf", "n": 4, "beta": 2, "nn_phase": math.pi / 2, "flux": 1,
              "profile": 2, "tmax": 1, "grid": 11}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("t,node_1,node_2,node_3,node_4,aux_1\n")
    path.write_text(json.dumps({"model": "ladder", "n": 2, "profile": 2.5, "tmax": 0.5, "grid": 3}))
    assert run_cli(["simulate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") == 4


def test_study_disorder_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["study", "disorder", "--kind", "hopping_strength", "--samples", "20",
            "--seed", "42", "--amplitudes", "0,0.3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "kind,amplitude,mean_fidelity,stderr,samples,seed"
    assert len(lines) == 3


def test_study_ladder_csv(tmp_path):
    out = tmp_path / "ladder.csv"
    assert run_cli(["study", "ladder", "--nrange", "1:3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n_copies,fidelity,period,profile"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_verbose_logs_info_after_an_earlier_quiet_call(tmp_path, caplog):
    # The root logger already has handlers (pytest's, or those of an earlier
    # main call), so the level must not depend on basicConfig alone.
    root = logging.getLogger()
    level = root.level
    argv = ["study", "ladder", "--nrange", "1", "--out", str(tmp_path / "ladder.csv")]
    try:
        assert run_cli(argv) == 0
        quiet = [r.getMessage() for r in caplog.records]
        assert run_cli(["--verbose", *argv]) == 0
    finally:
        root.setLevel(level)
    assert not any(m.startswith("ladder n=1 ") for m in quiet)
    loud = caplog.records[len(quiet):]
    assert [r.levelno for r in loud if r.getMessage().startswith("ladder n=1 ")] == [logging.INFO]


def test_study_optimize_csv(tmp_path):
    out = tmp_path / "opt.csv"
    assert run_cli(["study", "optimize", "--ncopies", "3", "--seed", "1",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = "n_copies,fidelity,period,evaluations,monotone,budget_exhausted,profile"
    assert lines[0] == header
    row = lines[1].split(",")
    assert row[4] == "true"


def test_study_bell_csv(tmp_path):
    out = tmp_path / "bell.csv"
    assert run_cli(["study", "bell", "--initial", "psi", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("t,p_psi_12")
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_study_floquet_csv(tmp_path):
    out = tmp_path / "floquet.csv"
    assert run_cli(["study", "floquet", "--ratios", "10,20", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "ratio,max_deviation"
    assert len(lines) == 3
    deviations = [float(line.split(",")[1]) for line in lines[1:]]
    assert deviations[0] > deviations[1]
    assert deviations[1] <= 0.05  # criterion 12's bar at ratio 20


def test_numeric_failure_exits_3(monkeypatch, capsys):
    # An arithmetic, allocation or linear-algebra error is a numeric failure
    # too, never exit 1 (a false verdict).
    for error in (NoPeaks("no node population reaches the peak threshold"),
                  OverflowError("high - low range exceeds valid bounds"),
                  MemoryError("Unable to allocate 298. GiB for an array"),
                  np.linalg.LinAlgError("Eigenvalues did not converge"),
                  ValueError("array must not contain infs or NaNs")):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(dynamics, "evolve", broken)
        code = run_cli(["simulate", "--model", "sgf", "--n", "3", "--grid", "11"])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["study", "optimize", "--ncopies", "6", "--budget", "5"], id="optimize-budget-5"),
    pytest.param(["study", "optimize", "--ncopies", "5", "--budget", "10"], id="optimize-budget-10"),
    pytest.param(["study", "optimize", "--ncopies", "8", "--budget", "149"],
                 id="optimize-budget-149"),
    pytest.param(["study", "optimize", "--ncopies", "0"], id="optimize-ncopies-0"),
    pytest.param(["study", "optimize", "--ncopies", "2", "--budget=-1"],
                 id="optimize-negative-budget-no-free-cells"),
    pytest.param(["study", "optimize", "--ncopies", "8", "--seed=-1"], id="optimize-negative-seed"),
    pytest.param(["study", "optimize", "--ncopies", "1", "--seed=-1"],
                 id="optimize-negative-seed-no-free-cells"),
    pytest.param(["study", "disorder", "--samples", "0"], id="disorder-samples-0"),
    pytest.param(["study", "disorder", "--seed=-1"], id="disorder-negative-seed"),
    pytest.param(["study", "disorder", "--amplitudes=-0.1"], id="disorder-negative-amplitude"),
    pytest.param(["study", "disorder", "--amplitudes=0.1,-0.1", "--samples", "2"],
                 id="disorder-negative-amplitude-in-list"),
    pytest.param(["study", "disorder", "--amplitudes", "1e308", "--kind", "frequency"],
                 id="disorder-amplitude-range-overflows"),
    pytest.param(["study", "floquet", "--ratios", "0"], id="floquet-ratio-0"),
    pytest.param(["study", "floquet", "--ratios=-5"], id="floquet-ratio-negative"),
    pytest.param(["study", "floquet", "--ratios", "nan"], id="floquet-ratio-nan"),
    pytest.param(["study", "floquet", "--ratios", ""], id="floquet-ratios-empty"),
    pytest.param(["study", "disorder", "--amplitudes", ""], id="disorder-amplitudes-empty"),
    pytest.param(["study", "ladder", "--nrange", ""], id="ladder-nrange-empty"),
    pytest.param(["study", "ladder", "--nrange", "3:1"], id="ladder-nrange-reversed"),
])
def test_bad_study_arguments_exit_2(args, capsys):
    assert run_cli(args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, flag, id=f"{command}-{flag[2:]}") for command, flags in (
        ("criteria", ("--out", "--svg", "--init", "--tmax", "--grid")),
        ("spectrum", ("--svg", "--init", "--tmax", "--grid")),
    ) for flag in flags])
def test_flags_a_command_ignores_exit_2(command, flag, tmp_path, capsys):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--model", "asgf", "--n", "4", flag, str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
def test_bad_tmax_exits_2_without_output(tmax, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["simulate", "--model", "sgf", "--n", "3", f"--tmax={tmax}",
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["--model", "sgf", "--flux", "nan"], id="flux-nan"),
    pytest.param(["--model", "asgf", "--nn-phase", "inf"], id="nn-phase-inf"),
    pytest.param(["--model", "asgf", "--beta", "nan"], id="beta-nan"),
    pytest.param(["--model", "asgf", "--beta=-1"], id="beta-negative"),
    pytest.param(["--model", "ladder", "--n", "2", "--profile", "nan"], id="profile-nan"),
    pytest.param(["--model", "ladder", "--n", "2", "--profile=-2"], id="profile-negative"),
    pytest.param(["--model", "chiral", "--n", "3"], id="chiral-n-3"),
])
def test_bad_model_arguments_exit_2_without_output(args, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["simulate", *args, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_wrong_profile_length_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["simulate", "--model", "ladder", "--n", "3", "--profile", "1,2,3",
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_large_node_label_is_not_a_bit_pattern(tmp_path):
    out = tmp_path / "ladder10.csv"
    code = run_cli(["simulate", "--model", "ladder", "--n", "4", "--init", "10",
                    "--tmax", "0.1", "--grid", "6", "--out", str(out)])
    assert code == 0
    first_row = out.read_text().strip().split("\n")[1].split(",")
    assert float(first_row[10]) == 1.0  # excitation starts on node 10


@pytest.mark.parametrize("command", ["simulate", "spectrum", "criteria"])
@pytest.mark.parametrize("model, n", [("sgf", 2), ("asgf", 2), ("spin-sgf", 2),
                                      ("spin-asgf", 1), ("ladder", 0)])
def test_out_of_range_n_exits_2_without_output(command, model, n, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "never.csv"] if command != "criteria" else []
    assert run_cli([command, "--model", model, "--n", str(n), *out]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


ORACLE_CASES = (["three_node_ring"]
                + [f"four_node_ring_theta={theta}" for theta in ("0.785", "1.571", "1.178")]
                + [f"four_node_centre_beta={beta}" for beta in (1, 2, 3)]
                + ["six_node_centre"]
                + [f"ring_plane_waves_n={n}" for n in range(3, 9)]
                + ["ladder_three_cells"])


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ORACLE_CASES
    assert all(line.endswith(" OK") for line in lines)


def test_svg_chart_is_self_contained():
    x = np.linspace(0, 1, 50)
    chart = commands.svg_line_chart(x, [np.sin(x), np.cos(x)], ["a", "b"], "demo")
    assert chart.count("<polyline") == 2
    assert "xmlns" in chart


# Runs in a fresh interpreter: imports one module, prints the chiralflow
# modules then loaded.
IMPORT_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "chiralflow")))
"""


@pytest.mark.parametrize("module", ["chiralflow.hilbert", "chiralflow.oracles", "chiralflow.cli"])
def test_importing_a_module_loads_only_what_it_imports(module):
    # The package re-exports nothing, so hilbert brings only errors along,
    # the closed forms of oracles bring nothing, and the CLI's front door
    # brings only errors until it dispatches a command.
    package = Path(cli.__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, module],
                          env={**os.environ, "PYTHONPATH": str(package.parent)},
                          capture_output=True, text=True, timeout=60, check=True)
    if module == "chiralflow.cli":
        expected = ["chiralflow", "chiralflow.cli", "chiralflow.errors"]
    elif module == "chiralflow.oracles":
        expected = ["chiralflow", "chiralflow.oracles"]
    else:
        expected = ["chiralflow", "chiralflow.errors", "chiralflow.hilbert"]
    assert json.loads(proc.stdout) == sorted(expected)


# Runs in a fresh interpreter: calls main on each argv in turn, in one
# process, and prints after each its exit code, whether numpy is loaded and
# the chiralflow modules then loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
from chiralflow.cli import main

steps = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append([argv, code, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.split(".")[0] == "chiralflow")])
print(json.dumps(steps))
"""


def test_cli_loads_numpy_only_to_dispatch_a_command():
    # --help, a usage error and a run configuration that fails validation are
    # answered by the front door alone.  A dispatched command loads every
    # module of the package at once, whichever it uses: the benchmark's
    # tracer wraps functions only in modules already loaded.
    package = Path(cli.__file__).resolve().parent
    front = ["chiralflow", "chiralflow.cli", "chiralflow.errors"]
    every = sorted(["chiralflow"] + [f"chiralflow.{p.stem}" for p in package.glob("*.py")
                                     if p.stem != "__init__"])
    expected = [[["--help"], 0, False, front],
                [["simulate", "--model", "nope"], 2, False, front],
                [["simulate", "--grid", "1"], 2, False, front],
                [["spectrum", "--model", "sgf", "--n", "3"], 0, True, every]]
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE,
                           json.dumps([argv for argv, *_ in expected])],
                          env={**os.environ, "PYTHONPATH": str(package.parent)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == expected


# Runs in a fresh interpreter, so nothing the test session imported counts.
# Prints, after each step, the exit code and the scipy modules then loaded.
SCIPY_PROBE = """
import json, sys
out = sys.argv[1]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import chiralflow
from chiralflow import cli, floquet
try:
    cli.main(["--help"])
except SystemExit:
    pass
steps = [("import and --help", 0, scipy_modules())]
for argv in (["simulate", "--model", "asgf", "--n", "4", "--out", out],
             # 560 states: the Krylov branch of evolve.
             ["simulate", "--model", "ladder", "--n", "4", "--init", "11100000000000",
              "--out", out],
             ["study", "disorder", "--samples", "2", "--out", out],
             ["study", "floquet", "--ratios", "2", "--out", out],
             ["study", "optimize", "--ncopies", "3", "--out", out],
             ["study", "bell", "--initial", "phi", "--out", out],
             ["criteria", "--model", "asgf", "--n", "4"]):
    steps.append((" ".join(argv), cli.main(argv), scipy_modules()))
steps.append(("oracle-check", cli.main(["oracle-check"]), scipy_modules()))
zero = floquet.first_bessel_zero()
print(json.dumps({"steps": steps, "zero": zero, "special": "scipy.special" in sys.modules}))
"""


def test_scipy_is_loaded_only_on_demand(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "out.csv")],
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for step, code, loaded in report["steps"]:
        assert (step, code, loaded) == (step, 0, [])
    assert report["special"]
    assert report["zero"] == 2.4048255576957724  # scipy's j_{0,1}, bit for bit
