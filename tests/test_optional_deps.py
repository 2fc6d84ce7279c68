"""networkx is the optional ``flow`` extra: only the flow-network scheduler
loads it.

Each check runs in a fresh interpreter, because this test process may
already have imported networkx through another test module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_repro_does_not_load_networkx():
    proc = run_python(
        "import sys\n"
        "import repro, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tetris_runs_without_networkx():
    proc = run_python(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "from repro.experiments import ExperimentConfig, run_trace\n"
        "from repro.schedulers import TetrisScheduler\n"
        "from repro.schedulers.registry import build_scheduler\n"
        "from repro.workload.tracegen import (\n"
        "    WorkloadSuiteConfig, generate_workload_suite)\n"
        "trace = generate_workload_suite(WorkloadSuiteConfig(\n"
        "    num_jobs=10, task_scale=0.02, arrival_horizon=100, seed=3))\n"
        "result = run_trace(trace, TetrisScheduler(),\n"
        "                   ExperimentConfig(num_machines=6))\n"
        "assert len(result.jobs) == 10\n"
        "assert all(job.is_finished for job in result.jobs)\n"
        "try:\n"
        "    build_scheduler('flow-network')\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('flow-network built without networkx')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "repro[flow]" in proc.stdout
