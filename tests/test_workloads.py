"""The stdout of every benchmark workload command, pinned by digest.

Each command of bench/run.py's WORKLOADS at seed 1 runs through
cli.main, in JSON and in CSV.  Its exit code and the sha256 of its
stdout must match tests/data/workload_stdout.json, so a change that
means to keep the program's output keeps these bytes.  After a change
that moves the output on purpose, record the digests again with

    PYTHONPATH=src python3 tests/test_workloads.py > tests/data/workload_stdout.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from paytobid.cli import main  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "data" / "workload_stdout.json"
SEED = 1
FORMATS = {"json": [], "csv": ["--format", "csv"]}


# Case id -> argv of each workload command in each format.
CASES = {
    f"{workload}-{i}-{fmt}": [*command.argv(), *flags]
    for workload, commands in run.WORKLOADS.items()
    for i, command in enumerate(commands(SEED))
    for fmt, flags in FORMATS.items()
}


def outcome(argv):
    """The exit code and the sha256 of stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("case, argv", CASES.items(), ids=list(CASES))
def test_workload_stdout_is_pinned(case, argv):
    assert outcome(argv) == json.loads(DIGESTS.read_text())[case], argv


if __name__ == "__main__":
    print(json.dumps({case: outcome(argv) for case, argv in CASES.items()}, indent=2))
