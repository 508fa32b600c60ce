"""Golden rows of ``gmewit verify``: every acceptance check's name, expected
value, tolerance and pass flag, and the value it computes.

The fixture holds the command's JSON rows; a check that is added, dropped,
renamed, re-toleranced or whose value moves shows here.  Regenerate it only
for an intended change of the checks or their numbers:

    PYTHONPATH=src python tests/test_verify_golden.py > tests/golden_verify.json
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gmewit.cli import main

GOLDEN = Path(__file__).with_name("golden_verify.json")


def verify_rows() -> list[dict]:
    result = CliRunner().invoke(main, ["verify", "--format", "json"])
    # ``verify`` exits 1 while any check fails; the rows are printed either way.
    assert result.exit_code in (0, 1), result.output
    return json.loads(result.stdout)


def test_verify_rows_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = verify_rows()
    assert [row["name"] for row in got] == [row["name"] for row in want]
    for got_row, want_row in zip(got, want):
        assert list(got_row) == list(want_row), want_row["name"]
        for column in ("passed", "expected", "tolerance"):
            assert got_row[column] == want_row[column], (column, want_row["name"])
        assert float(got_row["actual"]) == pytest.approx(float(want_row["actual"]), rel=1e-10), \
            want_row["name"]


if __name__ == "__main__":
    print(json.dumps(verify_rows(), indent=2))
