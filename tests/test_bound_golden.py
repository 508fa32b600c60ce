"""Golden rows of ``gmewit bound`` for every witness family at its default
party count, and for the stabilizer family at n = 3, on a 6-point ε grid over
[0, ε*].

The fixture holds the command's JSON rows; a column that moves or swaps
shows here.  Regenerate it only for an intended change of the numbers:

    PYTHONPATH=src python tests/test_bound_golden.py > tests/golden_bound_rows.json
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gmewit.bounds import EPS_STAR
from gmewit.cli import main

GOLDEN = Path(__file__).with_name("golden_bound_rows.json")
#: Fixture key → the family and party count (``None``: the family's own) it holds.
CASES = {"mermin": ("mermin", None), "stabilizer": ("stabilizer", None),
         "stabilizer3": ("stabilizer", 3), "wstate": ("wstate", None),
         "cluster": ("cluster", None)}


def bound_rows(family: str, n: int | None) -> list[dict]:
    party_count = [] if n is None else ["--n", str(n)]
    result = CliRunner().invoke(main, ["bound", "--witness", family, *party_count,
                                       "--format", "json",
                                       "--eps-grid", f"0:{float(EPS_STAR)!r}:6"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


@pytest.mark.parametrize("key", CASES)
def test_bound_rows_match_golden(key):
    want = json.loads(GOLDEN.read_text())[key]
    got = bound_rows(*CASES[key])
    assert [list(row) for row in got] == [list(row) for row in want]
    for got_row, want_row in zip(got, want):
        for column, expected in want_row.items():
            actual = got_row[column]
            if expected is None or column == "regime":
                assert actual == expected, (column, want_row["epsilon"])
            else:
                assert float(actual) == pytest.approx(float(expected), rel=1e-10), \
                    (column, want_row["epsilon"])


if __name__ == "__main__":
    print(json.dumps({key: bound_rows(*case) for key, case in CASES.items()}, indent=1))
