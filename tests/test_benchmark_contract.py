"""What the benchmark under perfbench/ needs from the package.

``perfbench/tracing.py`` wraps every traced function by its module and
name, and ``perfbench/workloads.py`` calls the public API and reads
solution and configuration attributes; a change that drops or renames one
of them breaks the benchmark.  These tests install the tracer and run one
pass of each workload, which must finish without a failed operation.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return tracing, workloads


def test_tracer_finds_every_traced_name(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    try:
        tracer.install()  # getattr without a default on every traced name
    finally:
        tracer.uninstall()


def test_one_pass_of_each_workload_has_no_failed_operation(perfbench, tmp_path):
    _, workloads = perfbench
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(1, str(tmp_path))
        workload.prepare()
        tally = workloads.Tally()
        workload.run_pass(0, tally)
        assert tally.attempted > 0, name
        assert tally.failed == 0, (name, tally.messages)
