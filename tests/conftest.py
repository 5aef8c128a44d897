"""Shared pytest plumbing: the BLAS thread default and the acceptance table.

The suite runs one BLAS thread unless the caller set ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``BITFORMER_THREADS``: its products are small, a
second thread mostly waits, and the acceptance criteria print the same
numbers either way.  This must run before numpy loads.

Acceptance tests record one line per criterion; the hook prints the table
after the run so the pass/fail status and measured numbers land in the
terminal output even though pytest captures per-test stdout.
"""

import os

import pytest

if "BITFORMER_THREADS" not in os.environ:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(label: str, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"{label:>3} {status}  {name:<30} {detail}")


@pytest.fixture
def record():
    return record_acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
