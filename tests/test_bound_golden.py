"""Golden rows of ``gmewit bound`` for every witness family at its default
party count, on a 6-point ε grid over [0, ε*].

The fixture holds the JSON rows the command printed before the bound rows
were built by one generic mapping; a column that moves or swaps shows here.
Regenerate it only for an intended change of the numbers:

    PYTHONPATH=src python tests/test_bound_golden.py > tests/golden_bound_rows.json
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gmewit.bounds import EPS_STAR
from gmewit.cli import main

GOLDEN = Path(__file__).with_name("golden_bound_rows.json")
FAMILIES = ("mermin", "stabilizer", "wstate", "cluster")


def bound_rows(family: str) -> list[dict]:
    result = CliRunner().invoke(main, ["bound", "--witness", family, "--format", "json",
                                       "--eps-grid", f"0:{float(EPS_STAR)!r}:6"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


@pytest.mark.parametrize("family", FAMILIES)
def test_bound_rows_match_golden(family):
    want = json.loads(GOLDEN.read_text())[family]
    got = bound_rows(family)
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
    print(json.dumps({family: bound_rows(family) for family in FAMILIES}, indent=1))
