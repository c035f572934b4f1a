"""Each benchmark workload runs a few ops against the library and passes its
own correctness checks, so that a library change which breaks a call the
benchmark makes fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


WORKLOADS = ["mimic_train", "detect_train", "analyze"]


# a traced run wraps library functions and methods by name, so it also fails
# here when one of them is renamed or removed
@pytest.mark.parametrize("workload,trace", [(w, t) for t in (0, 1) for w in WORKLOADS],
                         ids=WORKLOADS + [f"{w}-traced" for w in WORKLOADS])
def test_benchmark_workload_runs_and_checks_correct(workload, trace):
    env = dict(os.environ)
    if trace:  # a traced run needs the default single kernel thread
        env.pop("DCN2_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
