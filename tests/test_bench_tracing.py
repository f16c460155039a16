"""Guard for the benchmark's tracer.

bench/tracing.py wraps library functions by module and attribute name.  A
refactor that deletes or renames one of them still passes the library tests
and the untraced benchmark, but every traced benchmark run then dies with an
AttributeError.  Each test starts one set-up-only traced sample process.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_workloads():
    # by path, so that the benchmark's module names stay off sys.path
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_sample_installs_its_tracer(workload):
    request = {
        "workload": workload,
        "instances": workloads.instances(workload, 1),
        "trace": True,
        "setup_only": True,
        "spawned_at": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "sample.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "setup_s" in json.loads(proc.stdout.strip().splitlines()[-1])
