import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gmewit
from gmewit import acceptance, fixture_path
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
    # numpy scalars: its integers are numbers.Integral, its bool_ is not.
    assert fmt(np.int64(7)) == "7"
    assert fmt(np.float64(1 / 3)) == "0.333333333333"
    assert fmt(np.bool_(True)) == "1"


def test_parse_grid():
    grid = parse_grid("0:1:5")
    assert np.allclose(grid, [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(Exception):
        parse_grid("0-1-5")


def test_parse_noise():
    noise = parse_noise("white:0.9")
    assert noise.kind == "depolarizing" and noise.p == 0.9
    with pytest.raises(ValueError, match="expected kind:p"):
        parse_noise("bogus")
    # A spec that parses as kind:p keeps the noise model's own message.
    with pytest.raises(ValueError, match=r"visibility p must lie in \[0, 1\]"):
        parse_noise("white:2")


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
    assert runner.invoke(main, ["robustness", "--witness", "i43", "--seed", "1"]).exit_code == 2
    result = runner.invoke(main, ["fidelity", "--witness", "mermin4", "--value", "7",
                                  "--eps-x", "0", "--seed", "1"])
    assert result.exit_code == 0, result.output


#: The most axes numpy allows an array: an I_nm table for n parties has 2n.
_MAX_NDIM = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32

#: Inputs whose one line is pinned: a party count its family lacks names the
#: family and its sizes; a missing option names the options to give; a noise
#: spec that parses as kind:p keeps the noise model's own message; an I_nm
#: party or setting count without meaning, or with more table axes than numpy
#: allows, names the counts, not the file; an I_nm table of the wrong size
#: names the file, the entries it holds and the m^n·2^n it needs; a
#: Mermin party count whose quantum value 2^{n−1} overflows a float gives the
#: range; a witness line that falls with p gives its two end values.
BAD_INPUT_MESSAGES = {
    "bound --witness stabilizer --n 5 --eps 0.01": "the stabilizer family has n = 3, 4 only",
    "bound --witness cluster --n 3 --eps 0.01": "the cluster family has n = 4 only",
    "bound --witness wstate --n 4 --eps 0.01": "the wstate family has n = 3 only",
    "bound --witness mermin": "give exactly one of --eps / --eps-grid",
    "witness --witness mermin4": "give --fixture, or both --witness and --state",
    "fidelity --witness mermin4": "give --value or --curve",
    "witness --witness mermin4 --state ghz4 --noise foo":
        "expected kind:p, e.g. dephasing:0.9, got 'foo'",
    "witness --witness mermin4 --state ghz4 --noise white:2":
        "visibility p must lie in [0, 1]",
    "witness --witness mermin4 --state ghz4 --noise pink:0.5": "unknown noise kind 'pink'",
    "inm --n 0 --m 2 --probs {one}": "n must be at least 1 and m at least 2, got n = 0, m = 2",
    "inm --n 1 --m 0 --probs {one}": "n must be at least 1 and m at least 2, got n = 1, m = 0",
    "inm --n 1 --m 1 --probs {one}": "n must be at least 1 and m at least 2, got n = 1, m = 1",
    "inm --n 33 --m 2 --probs {one}": f"n must be at most {_MAX_NDIM // 2}, since the table has "
                                     f"2n axes and numpy allows {_MAX_NDIM}, got n = 33, m = 2",
    # numpy < 2 allows 32 axes, so there n = 32 gets the axes message.
    "inm --n 32 --m 2 --probs {one}": "{one}: holds 1 probabilities; n = 32, m = 2 needs "
                                     "m^n·2^n = 18446744073709551616" if _MAX_NDIM >= 64
                                     else f"n must be at most 16, since the table has 2n axes "
                                          f"and numpy allows 32, got n = 32, m = 2",
    "inm --n 3 --m 2 --probs {one}": "{one}: holds 1 probabilities; n = 3, m = 2 needs "
                                    "m^n·2^n = 64",
    "bound --witness mermin --n 1025 --eps 0.01": "n must lie in [3, 1024]",
    "bound --witness mermin --n 2000 --eps 0.01": "n must lie in [3, 1024]",
    **{f"robustness --witness i43 --i43-bound {b}": "the value never crosses the bound on p ∈ [0, 1]"
       for b in ("nan", "-100", "100")},
    "robustness --witness mermin4 --case worst-case-tilted --eps 0.2":
        "the value does not rise with p (6.7456 at p = 0, -6.7456 at p = 1), "
        "so no visibility threshold exists",
    **{f"spoof --eps-grid {g}": "expected start:stop:count with finite start and stop and "
       f"1 ≤ count ≤ 1000000, got '{g}'" for g in ("0:inf:2", "nan:1:2", "0:0.1:1000001")},
}

#: Bad numbers whose error once came after a numpy warning, or not at all.
NUMERIC_BAD_INPUTS = [
    ["robustness", "--witness", "i43", "--i43-bound", "nan"],
    ["robustness", "--witness", "i43", "--i43-bound", "-100"],
    ["robustness", "--witness", "i43", "--i43-bound", "100"],
    ["spoof", "--eps-grid", "0:inf:2"],
    ["spoof", "--eps-grid", "nan:1:2"],
    ["spoof", "--eps-grid", "0:0.1:1000001"],
]


@pytest.mark.parametrize("args", [
    ["bound", "--witness", "stabilizer", "--n", "5", "--eps", "0.01"],
    ["bound", "--witness", "stabilizer", "--eps", "0.2"],
    ["witness", "--witness", "mermin4", "--state", "ghz3"],
    ["inm", "--probs", "{two_entries}"],
    ["tomo", "--counts", "{missing}"],
    ["robustness", "--witness", "mermin4", "--case", "worst-case-tilted",
     "--eps", "0.3"],
    ["robustness", "--witness", "mermin4", "--case", "worst-case-tilted",
     "--eps", "0.2"],
    ["bound", "--witness", "cluster", "--n", "3", "--eps", "0.01"],
    ["bound", "--witness", "wstate", "--n", "4", "--eps", "0.01"],
    ["witness", "--fixture", "fig4_mermin.json", "--eps", "0.3", "--state", "w"],
    ["witness", "--fixture", "fig4_mermin.json", "--witness", "mermin4"],
    ["witness", "--fixture", "fig4_mermin.json", "--noise", "white:0.9"],
    ["witness", "--fixture", "fig4_mermin.json", "--eps", "0"],
    ["robustness", "--witness", "i43", "--eps", "0.01"],
    ["robustness", "--witness", "i42", "--noise", "dephasing"],
    ["robustness", "--witness", "i43", "--case", "best-case-exact"],
    ["robustness", "--witness", "i42", "--p-grid", "0:1:3"],
    ["robustness", "--witness", "i42", "--i43-bound", "70"],
    ["robustness", "--witness", "mermin4", "--i43-bound", "70"],
    ["witness", "--fixture", "{renamed}"],
    ["fidelity", "--witness", "mermin4", "--curve", "0.8:1:2", "--value", "3"],
    ["robustness", "--witness", "stabilizer4", "--eps", "0.15"],
    ["fidelity", "--witness", "mermin4", "--value", "7.4665", "--restarts", "0"],
    ["fidelity", "--witness", "stabilizer4", "--value", "10.5", "--restarts", "-1"],
    ["fidelity", "--witness", "mermin4", "--curve", "0.8:1:2", "--restarts", "0"],
    ["fidelity", "--witness", "mermin4", "--value", "7.4665", "--seed", "-1"],
    ["fidelity", "--witness", "stabilizer4", "--curve", "0.8:1:2", "--seed", "-1"],
    ["bound", "--witness", "mermin", "--eps-grid", "0:0.1:0"],
    ["bound", "--witness", "mermin"],
    ["witness", "--witness", "mermin4"],
    ["fidelity", "--witness", "mermin4"],
    ["witness", "--witness", "mermin4", "--state", "ghz4", "--noise", "foo"],
    ["witness", "--witness", "mermin4", "--state", "ghz4", "--noise", "white:2"],
    ["witness", "--witness", "mermin4", "--state", "ghz4", "--noise", "pink:0.5"],
    ["inm", "--probs", "{directory}"],
    ["spoof", "--eps-grid", "0:0.1:2", "--out", "{directory}"],
    ["inm", "--n", "0", "--m", "2", "--probs", "{one}"],
    ["inm", "--n", "1", "--m", "0", "--probs", "{one}"],
    ["inm", "--n", "1", "--m", "1", "--probs", "{one}"],
    ["inm", "--n", "33", "--m", "2", "--probs", "{one}"],
    ["inm", "--n", "32", "--m", "2", "--probs", "{one}"],
    ["inm", "--n", "3", "--m", "2", "--probs", "{one}"],
    ["bound", "--witness", "mermin", "--n", "1025", "--eps", "0.01"],
    ["bound", "--witness", "mermin", "--n", "2000", "--eps", "0.01"],
    *NUMERIC_BAD_INPUTS,
])
def test_bad_input_is_a_one_line_usage_error(tmp_path, runner, args):
    two_entries = tmp_path / "probs.json"
    two_entries.write_text("[0.5, 0.5]")
    one = tmp_path / "one.json"
    one.write_text("[1]")
    renamed = tmp_path / "mermin5.json"
    fixture = json.loads(fixture_path("fig4_mermin.json").read_text())
    renamed.write_text(json.dumps({**fixture, "witness": "mermin5"}))
    paths = {"two_entries": str(two_entries), "missing": str(tmp_path / "missing.csv"),
             "renamed": str(renamed), "directory": str(tmp_path), "one": str(one)}
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    message = BAD_INPUT_MESSAGES.get(" ".join(args))
    if message is not None:
        assert lines[0] == f"Error: {message.format(**paths)}"


@pytest.mark.parametrize("args", NUMERIC_BAD_INPUTS)
def test_bad_number_prints_exactly_one_stderr_line(args):
    # A child process: inside pytest a numpy RuntimeWarning is recorded, not printed.
    proc = subprocess.run([sys.executable, "-m", "gmewit.cli", *args], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"Error: {BAD_INPUT_MESSAGES[' '.join(args)]}"]


#: Table A.1 with proj_D and proj_A both 0 under prep_D.
_ZERO_TOTAL = fixture_path("table_a1.csv").read_text().replace(
    "proj_D,183295,156835,346731", "proj_D,183295,156835,0").replace(
    "proj_A,166765,191123,180", "proj_A,166765,191123,0")

#: Malformed input files → (contents, command, what the error says is missing).
#: The library readers' messages do not name the file; the CLI adds the name.
MALFORMED_INPUTS = {
    "empty.csv": ("", ["tomo", "--counts"], "no header row of prep_ columns"),
    "comments.csv": ("# no table\n", ["tomo", "--counts"], "no header row of prep_ columns"),
    "nowitness.json": ('{"records": []}', ["witness", "--fixture"], "no witness key"),
    "norecords.json": ('{"witness": "mermin4"}', ["witness", "--fixture"], "no records key"),
    "nostd.json": ('{"witness": "mermin4", "records": [{"letters": "XXXX", "value": 0.9}]}',
                   ["witness", "--fixture"], "record 0 has no std"),
    "number.json": ("5", ["witness", "--fixture"], "no witness or records key"),
    "recordsdict.json": ('{"witness": "mermin4", "records": {}}', ["witness", "--fixture"],
                         "records is not a list"),
    "numberrecord.json": ('{"witness": "mermin4", "records": [5]}', ["witness", "--fixture"],
                          "record 0 has no letters, value, std"),
    "nullvalue.json": ('{"witness": "mermin4", "records": '
                       '[{"letters": "XXXX", "value": null, "std": 0.1}]}',
                       ["witness", "--fixture"], "record 0 value is not a number"),
    "notcount.csv": ("projector,prep_H\nproj_D,abc\n", ["tomo", "--counts"],
                     "proj_D/prep_H is not a count: 'abc'"),
    "zerototal.csv": (_ZERO_TOTAL, ["tomo", "--counts"],
                      "proj_D and proj_A both count 0 under prep_D"),
    "object.json": ('{"p": 0.5}', ["inm", "--probs"],
                    "float() argument must be a string or a real number, not 'dict'"),
    "nullentry.json": (json.dumps([None] + [1 / 16] * 255), ["inm", "--probs"],
                       "probabilities must be finite and non-negative"),
    "negative.json": (json.dumps([-0.5, 1.5] + [1 / 16] * 254), ["inm", "--probs"],
                      "probabilities must be finite and non-negative"),
    "partial.csv": ("projector,prep_H\nproj_D,5\n", ["tomo", "--counts"],
                    "missing count for proj_D/prep_V"),
    "negativestd.json": ('{"witness": "mermin4", "records": '
                         '[{"letters": "XXXX", "value": 0.9, "std": -0.1}]}',
                         ["witness", "--fixture"], "record 0 std must be non-negative"),
    "unphysical.json": ('{"witness": "mermin4", "records": '
                        '[{"letters": "XXXX", "value": 1.5, "std": 0.1}]}',
                        ["witness", "--fixture"],
                        "record 0 correlator value outside the physical range"),
    "numberletters.json": ('{"witness": "mermin4", "records": '
                           '[{"letters": 5, "value": 0.9, "std": 0.1}]}',
                           ["witness", "--fixture"], "record 0 letters is not a string"),
    "oneterm.json": ('{"witness": "mermin4", "records": '
                     '[{"letters": "XXXX", "value": 0.9, "std": 0.1}]}',
                     ["witness", "--fixture"], "missing record for term YYXX"),
    "truncated.json": ('{"witness": "merm', ["witness", "--fixture"],
                       "Unterminated string starting at: line 1 column 13 (char 12)"),
    "repeatedrow.csv": (fixture_path("table_a1.csv").read_text().replace("proj_A,", "proj_D,"),
                        ["tomo", "--counts"], "proj_D is repeated"),
    "repeatedcolumn.csv": (fixture_path("table_a1.csv").read_text().replace("prep_V,", "prep_H,"),
                           ["tomo", "--counts"], "prep_H is repeated"),
    "latin1.csv": (b"projector,prep_H\n\xff\n", ["tomo", "--counts"],
                   "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
}


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_input_file_names_the_file_and_what_is_missing(runner, name):
    text, command, missing = MALFORMED_INPUTS[name]
    with runner.isolated_filesystem():
        Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(main, [*command, name])
    assert result.exit_code == 2, result.output
    assert result.output.strip().split("\n") == [f"Error: {name}: {missing}"]


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


def test_fidelity_eps_not_given_keeps_its_reference_value(runner):
    # --eps-y at its reference value alone is the reference budget: the
    # entries not given are not set to 0, which would drop the correction
    # (all three set to 0 give L_ε = L0, ``test_fidelity_command``).
    base = ["fidelity", "--witness", "stabilizer4", "--value", "10.5168", "--restarts", "1"]
    reference = runner.invoke(main, base)
    assert reference.exit_code == 0, reference.output
    partial = runner.invoke(main, base + ["--eps-y", "0.0023"])
    assert partial.exit_code == 0, partial.output
    assert partial.output == reference.output


def test_tomo_command(runner):
    result = runner.invoke(main, ["tomo", "--counts", "table_a1.csv"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 7
    for line in lines[1:]:
        assert 0.99 <= float(line.split(",")[2]) <= 1.0


def test_tomo_rows_match_golden(runner):
    # All six rows of the bundled Table A.1, every cell as printed. Regenerate
    # only for an intended change of the estimators:
    #   PYTHONPATH=src python -m gmewit.cli tomo --counts table_a1.csv --format json \
    #       > tests/golden_tomo.json
    result = runner.invoke(main, ["tomo", "--counts", "table_a1.csv", "--format", "json"])
    assert result.exit_code == 0, result.output
    golden = Path(__file__).with_name("golden_tomo.json")
    assert json.loads(result.output) == json.loads(golden.read_text())


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
    # ``verify`` imports run_checks when it runs, so the patch goes where it is defined.
    ok = [CheckResult("a", 1.0, 1.0, 0.1)]
    monkeypatch.setattr(acceptance, "run_checks", lambda: ok)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0
    bad = [CheckResult("a", 1.0, 2.0, 0.1)]
    monkeypatch.setattr(acceptance, "run_checks", lambda: bad)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1


def test_bare_filename_in_the_working_directory_is_read(runner):
    with runner.isolated_filesystem():
        Path("mytable.csv").write_bytes(fixture_path("table_a1.csv").read_bytes())
        result = runner.invoke(main, ["tomo", "--counts", "mytable.csv"])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, ["tomo", "--counts", "table_a1.csv"]).output
        Path("mine.json").write_bytes(fixture_path("fig4_mermin.json").read_bytes())
        result = runner.invoke(main, ["witness", "--fixture", "mine.json"])
        assert result.exit_code == 0, result.output
        assert result.output.split("\n")[1].startswith("mermin4,mine.json,")
        # A file here shadows the bundled fixture of the same name.
        Path("fig4_mermin.json").write_bytes(fixture_path("fig4_stabilizer.json").read_bytes())
        result = runner.invoke(main, ["witness", "--fixture", "fig4_mermin.json"])
        assert result.output.split("\n")[1].startswith("stabilizer4,"), result.output


def test_missing_input_names_both_places_tried(runner):
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["tomo", "--counts", "nothere.csv"])
        assert result.exit_code == 2, result.output
        assert str(Path.cwd() / "nothere.csv") in result.output
        assert str(fixture_path("nothere.csv")) in result.output


#: Commands that must run without loading scipy: every command.
SCIPY_FREE = {
    "bound-mermin": ["bound", "--witness", "mermin", "--eps-grid", "0:0.1:5"],
    "bound-stabilizer": ["bound", "--witness", "stabilizer", "--eps", "0.05"],
    "bound-cluster": ["bound", "--witness", "cluster", "--eps", "0.05"],
    "bound-wstate": ["bound", "--witness", "wstate", "--eps", "0.05"],
    "witness-state": ["witness", "--witness", "stabilizer4", "--state", "ghz4",
                      "--noise", "white:0.9"],
    "witness-fixture": ["witness", "--fixture", "fig4_mermin.json"],
    "spoof": ["spoof", "--eps-grid", "0:0.1:3"],
    "robustness-mermin4": ["robustness", "--witness", "mermin4", "--eps", "0.005"],
    "robustness-stabilizer4": ["robustness", "--witness", "stabilizer4", "--eps", "0.005"],
    "robustness-i42": ["robustness", "--witness", "i42"],
    "robustness-i43": ["robustness", "--witness", "i43"],
    "tomo": ["tomo", "--counts", "table_a1.csv"],
    "inm": ["inm", "--probs", "probs.json"],
    "fidelity-value": ["fidelity", "--witness", "mermin4", "--value", "7.4665",
                       "--restarts", "1"],
    "fidelity-curve": ["fidelity", "--witness", "stabilizer4", "--curve", "0.8:1:3",
                       "--restarts", "1"],
    "verify": ["verify"],
}

#: The gmewit modules, beside ``gmewit`` and ``gmewit.cli``, that each command
#: loads: those it imports and theirs.  ``import gmewit.cli`` alone loads none.
_WITNESSES = {"witnesses", "measurement", "linalg", "tolerances"}
_BOUNDS = _WITNESSES | {"bounds", "states"}
_ROBUSTNESS = _BOUNDS | {"robustness"}
_DI_ROBUSTNESS = {"robustness"}        # two closed forms: no bound row, witness or state
_FIDELITY = _WITNESSES | {"states", "fidelity"}
GMEWIT_LOADS = {
    "import": set(),
    "bound-mermin": _BOUNDS,
    "bound-stabilizer": _BOUNDS,
    "bound-cluster": _BOUNDS,
    "bound-wstate": _BOUNDS,
    "witness-state": _WITNESSES | {"states"},
    "witness-fixture": _WITNESSES | {"fixtures"},
    "spoof": _BOUNDS,
    "robustness-mermin4": _ROBUSTNESS,
    "robustness-stabilizer4": _ROBUSTNESS,
    "robustness-i42": _DI_ROBUSTNESS,
    "robustness-i43": _DI_ROBUSTNESS,
    "tomo": {"measurement", "linalg", "tolerances", "fixtures"},
    "inm": _WITNESSES,
    "fidelity-value": _FIDELITY,
    "fidelity-curve": _FIDELITY,
    "verify": _ROBUSTNESS | _FIDELITY | {"acceptance", "fixtures"},
}

#: Calls that must load no numpy → (argv, exit status): a bare import
#: (``"import"``), help, usage errors found before a command computes, and the
#: two device-independent thresholds, which are closed forms.
NUMPY_FREE = {
    "import": ([], 0),
    "help": (["--help"], 0),
    **{f"help-{command}": ([command, "--help"], 0) for command in main.commands},
    "bad-choice": (["robustness", "--witness", "i44"], 2),
    "eps-and-eps-grid": (["bound", "--witness", "mermin", "--eps", "0",
                          "--eps-grid", "0:0.1:3"], 2),
    "robustness-i42": (SCIPY_FREE["robustness-i42"], 0),
    "robustness-i43": (SCIPY_FREE["robustness-i43"], 0),
}

#: Every child the guards below run → (argv, exit status).  ``verify`` exits 1
#: by design: the two 2|2 partition checks fail.
_CHILDREN = {**{name: (args, int(name == "verify")) for name, args in SCIPY_FREE.items()},
             **NUMPY_FREE}

#: Imports gmewit.cli, runs the command given in argv in-process as the
#: ``gmewit`` script does, and prints the numpy, scipy and gmewit modules then
#: loaded, also when the command exits non-zero.
_CHILD = """
import json, sys
import gmewit.cli
try:
    if len(sys.argv) > 1:
        gmewit.cli.main(args=sys.argv[1:], prog_name="gmewit")
finally:
    print(json.dumps({top: sorted(m for m in sys.modules if m.split(".")[0] == top)
                      for top in ("numpy", "scipy", "gmewit")}))
"""


def _child_env() -> dict:
    """The environment of a child Python that imports this checkout's gmewit."""
    src = str(Path(gmewit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _loaded_by(args, status, cwd, prelude="") -> dict[str, list[str]]:
    proc = subprocess.run([sys.executable, "-c", prelude + _CHILD, *args], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == status, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules that each child in ``_CHILDREN`` loads, from one child per
    name, which all guards below read."""
    cwd = tmp_path_factory.mktemp("children")
    (cwd / "probs.json").write_text(json.dumps([1 / 16] * 256))
    return functools.cache(lambda name: _loaded_by(*_CHILDREN[name], cwd))


@pytest.mark.parametrize("name", ["import"] + sorted(SCIPY_FREE))
def test_command_loads_no_scipy(loaded, name):
    assert loaded(name)["scipy"] == []


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_front_end_loads_no_numpy(loaded, name):
    # numpy's import is most of a cold start that computes nothing.
    assert loaded(name)["numpy"] == []


@pytest.mark.parametrize("name", ["import"] + sorted(SCIPY_FREE))
def test_command_loads_only_the_gmewit_modules_it_calls(loaded, name):
    # Without a bytecode cache each module loaded is compiled afresh, so a
    # command that loads one it never calls starts slower for nothing.
    want = {"gmewit", "gmewit.cli"} | {f"gmewit.{m}" for m in GMEWIT_LOADS[name]}
    assert set(loaded(name)["gmewit"]) == want


def test_scipy_guard_sees_the_fidelity_bound(tmp_path):
    # The fidelity bound no longer loads scipy, so the guard is shown a child
    # whose ``fidelity`` command imports scipy.optimize while it runs.
    prelude = """
import gmewit.cli
command = gmewit.cli.main.commands["fidelity"]
run = command.callback
def importing(**params):
    import scipy.optimize
    return run(**params)
command.callback = importing
"""
    loaded = _loaded_by(["fidelity", "--witness", "mermin4", "--value", "7.4665",
                         "--restarts", "1"], 0, tmp_path, prelude)["scipy"]
    assert "scipy.optimize" in loaded
