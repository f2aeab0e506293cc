import json
import math

import numpy as np
import pytest

from chiralflow import cli, dynamics
from chiralflow.errors import ConfigError, NonHermitian


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
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg
    assert cli.RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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


def test_numeric_failure_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise NonHermitian("matrix is not Hermitian within 1e-12")

    monkeypatch.setattr(dynamics, "evolve", broken)
    code = run_cli(["simulate", "--model", "sgf", "--n", "3", "--grid", "11"])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["study", "optimize", "--ncopies", "6", "--budget", "5"], id="optimize-budget-5"),
    pytest.param(["study", "optimize", "--ncopies", "5", "--budget", "10"], id="optimize-budget-10"),
    pytest.param(["study", "optimize", "--ncopies", "0"], id="optimize-ncopies-0"),
    pytest.param(["study", "disorder", "--samples", "0"], id="disorder-samples-0"),
    pytest.param(["study", "disorder", "--amplitudes=-0.1"], id="disorder-negative-amplitude"),
    pytest.param(["study", "disorder", "--amplitudes=0.1,-0.1", "--samples", "2"],
                 id="disorder-negative-amplitude-in-list"),
    pytest.param(["study", "floquet", "--ratios", "0"], id="floquet-ratio-0"),
    pytest.param(["study", "floquet", "--ratios=-5"], id="floquet-ratio-negative"),
    pytest.param(["study", "floquet", "--ratios", "nan"], id="floquet-ratio-nan"),
])
def test_bad_study_arguments_exit_2(args, capsys):
    assert run_cli(args) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
def test_bad_tmax_exits_2_without_output(tmax, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run_cli(["simulate", "--model", "sgf", "--n", "3", f"--tmax={tmax}",
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


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check"]) == 0
    output = capsys.readouterr().out
    assert "ladder_resolvent" in output
    assert "FAIL" not in output


def test_svg_chart_is_self_contained():
    x = np.linspace(0, 1, 50)
    chart = cli.svg_line_chart(x, [np.sin(x), np.cos(x)], ["a", "b"], "demo")
    assert chart.count("<polyline") == 2
    assert "xmlns" in chart
