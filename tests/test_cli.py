import json

import numpy as np
import pytest
from click.testing import CliRunner

import gmewit.cli as cli_mod
from gmewit.acceptance import CheckResult
from gmewit.cli import fmt, main, parse_grid, parse_noise


@pytest.fixture
def runner():
    return CliRunner()


def test_fmt_significant_digits():
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(8.0) == "8"
    assert fmt(None) == ""
    assert fmt(7) == "7"


def test_parse_grid():
    grid = parse_grid("0:1:5")
    assert np.allclose(grid, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(Exception):
        parse_grid("0-1-5")


def test_parse_noise():
    noise = parse_noise("white:0.9")
    assert noise.kind == "depolarizing" and noise.p == 0.9
    with pytest.raises(Exception):
        parse_noise("bogus")


def test_bound_command_csv(runner):
    result = runner.invoke(main, ["bound", "--witness", "mermin", "--eps", "0"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("epsilon,")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["bound_biseparable"]) == pytest.approx(4.0)
    assert float(row["bound_quantum"]) == pytest.approx(8.0)


def test_bound_command_requires_one_grid_option(runner):
    result = runner.invoke(main, ["bound", "--witness", "mermin"])
    assert result.exit_code != 0
    result = runner.invoke(main, ["bound", "--witness", "mermin", "--eps", "0",
                                  "--eps-grid", "0:0.1:3"])
    assert result.exit_code != 0


def test_bound_command_deterministic(runner):
    args = ["bound", "--witness", "stabilizer", "--eps-grid", "0:0.1:4"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    assert "\r" not in out1


def test_witness_command_state(runner):
    result = runner.invoke(main, ["witness", "--witness", "mermin4",
                                  "--state", "ghz4"])
    assert result.exit_code == 0, result.output
    assert ",8," in result.output or result.output.strip().endswith(",8,")


def test_witness_command_fixture(runner):
    result = runner.invoke(main, ["witness", "--fixture", "fig4_mermin.json"])
    assert result.exit_code == 0, result.output
    value = float(result.output.strip().split("\n")[1].split(",")[2])
    assert value == pytest.approx(7.4664, abs=1e-3)


def test_witness_command_noise(runner):
    result = runner.invoke(main, ["witness", "--witness", "mermin4",
                                  "--state", "ghz4", "--noise", "white:0.5"])
    assert result.exit_code == 0, result.output
    value = float(result.output.strip().split("\n")[1].split(",")[2])
    assert value == pytest.approx(4.0, abs=1e-9)


def test_spoof_command(runner):
    result = runner.invoke(main, ["spoof", "--eps-grid", "0:0.1:3",
                                  "--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert len(rows) == 3
    assert float(rows[0]["predicted"]) == pytest.approx(4.0, abs=1e-9)


def test_robustness_command_di(runner):
    result = runner.invoke(main, ["robustness", "--witness", "i42"])
    assert result.exit_code == 0, result.output
    threshold = float(result.output.strip().split("\n")[1].split(",")[1])
    assert threshold == pytest.approx((8 + 2 ** 2.5) / 16, abs=1e-9)


def test_robustness_command_i43(runner):
    result = runner.invoke(main, ["robustness", "--witness", "i43"])
    assert result.exit_code == 0, result.output
    threshold = float(result.output.strip().split("\n")[1].split(",")[1])
    assert threshold == pytest.approx(0.834, abs=1e-3)


def test_removed_options_are_rejected(runner):
    base = ["bound", "--witness", "mermin", "--eps", "0.1"]
    assert runner.invoke(main, base + ["--workers", "2"]).exit_code == 2
    assert runner.invoke(main, base + ["--seed", "1"]).exit_code == 2
    result = runner.invoke(main, ["robustness", "--witness", "i42", "--seed", "1"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [
    ["bound", "--witness", "stabilizer", "--n", "5", "--eps", "0.01"],
    ["bound", "--witness", "stabilizer", "--eps", "0.2"],
    ["witness", "--witness", "mermin4", "--state", "ghz3"],
    ["inm", "--probs", "{two_entries}"],
    ["tomo", "--counts", "{missing}"],
    ["robustness", "--witness", "mermin4", "--case", "worst-case-tilted",
     "--eps", "0.3"],
])
def test_bad_input_is_a_one_line_usage_error(tmp_path, runner, args):
    two_entries = tmp_path / "probs.json"
    two_entries.write_text("[0.5, 0.5]")
    paths = {"two_entries": str(two_entries), "missing": str(tmp_path / "missing.csv")}
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output


def test_robustness_command_threshold(runner):
    result = runner.invoke(main, ["robustness", "--witness", "mermin4",
                                  "--noise", "white"])
    assert result.exit_code == 0, result.output
    row = result.output.strip().split("\n")[1].split(",")
    assert float(row[-1]) == pytest.approx(0.5, abs=1e-6)


def test_robustness_command_sweep(runner):
    result = runner.invoke(main, ["robustness", "--witness", "mermin4",
                                  "--noise", "white", "--p-grid", "0:1:3"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("p,witness_value")
    assert len(lines) == 4


def test_fidelity_command(runner):
    result = runner.invoke(main, ["fidelity", "--witness", "mermin4",
                                  "--value", "7.0", "--eps-x", "0",
                                  "--eps-y", "0", "--eps-z", "0"])
    assert result.exit_code == 0, result.output
    row = result.output.strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(0.875)
    assert float(row[3]) == pytest.approx(0.875, abs=1e-5)


def test_tomo_command(runner):
    result = runner.invoke(main, ["tomo", "--counts", "table_a1.csv"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 7
    for line in lines[1:]:
        assert 0.99 <= float(line.split(",")[2]) <= 1.0


def test_inm_command(tmp_path, runner):
    table = np.zeros((2,) * 4 + (2,) * 4)
    table[..., 0, 0, 0, 0] = 1.0
    path = tmp_path / "probs.json"
    path.write_text(json.dumps(table.ravel().tolist()))
    result = runner.invoke(main, ["inm", "--n", "4", "--m", "2",
                                  "--probs", str(path)])
    assert result.exit_code == 0, result.output
    assert float(result.output.strip().split("\n")[1].split(",")[2]) == pytest.approx(-4.0)


def test_out_file_lf_endings(tmp_path, runner):
    out = tmp_path / "bounds.csv"
    result = runner.invoke(main, ["bound", "--witness", "mermin",
                                  "--eps", "0.01", "--out", str(out)])
    assert result.exit_code == 0, result.output
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_verify_exit_codes(runner, monkeypatch):
    ok = [CheckResult("a", 1.0, 1.0, 0.1)]
    monkeypatch.setattr(cli_mod, "run_checks", lambda: ok)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0
    bad = [CheckResult("a", 1.0, 2.0, 0.1)]
    monkeypatch.setattr(cli_mod, "run_checks", lambda: bad)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
