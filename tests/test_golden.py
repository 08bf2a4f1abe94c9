"""Every CLI output of the golden config set, byte for byte.

The record (``tests/golden_outputs.json``, written by
``tests/golden_record.py``) holds the SHA-256 of each file the CLI writes
for a fixed config set.  Criterion 10 compares one run with another of the
same tree; this test compares a run with the record, so a change that moves
output bytes shows here and must regenerate the record on purpose.

The record also names the numpy version and FFT backend it was made with.
Another numpy build may round differently, so on a different environment
the test is skipped with a reason that names both, rather than failing or
passing quietly.
"""

import json

import pytest

from golden_record import RECORD, compare, environment, moved, run_cases


def test_outputs_match_golden_record(tmp_path):
    with open(RECORD, encoding="utf-8") as fh:
        record = json.load(fh)
    recorded_env = {k: record[k] for k in ("numpy", "fft_backend")}
    if environment() != recorded_env:
        pytest.skip(f"golden record made with {recorded_env}, this is "
                    f"{environment()}; regenerate it with tests/golden_record.py")
    changed = moved(record["outputs"], run_cases(str(tmp_path)))
    assert not changed, f"outputs differ from the golden record: {changed}"


def test_compare_reports_the_largest_move_per_file(tmp_path):
    trees = {"old": {"a/verify.csv": "ratio,id\n2.0,x\n4.0,y\n",
                     "a/manifest.json": '{"max": 8.0, "runs": [1.0, "nan"]}',
                     "a/same.csv": "1.0\n", "a/text.csv": "x\n", "a/gone.csv": "1\n"},
             "new": {"a/verify.csv": "ratio,id\n2.0,x\n4.000000000004,y\n",
                     "a/manifest.json": '{"max": 8.0, "runs": [1.5, "nan"]}',
                     "a/same.csv": "1.0\n", "a/text.csv": "y\n"}}
    for tree, files in trees.items():
        for name, text in files.items():
            (tmp_path / tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / name).write_text(text)
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert compare(old, new) == [
        f"a/gone.csv: only in {old}",
        "a/manifest.json: largest relative move 5.00e-01",
        "a/text.csv: not numeric",
        "a/verify.csv: largest relative move 1.00e-12",
    ]
