"""The benchmark's self-test runs the engine paths its workloads call (a
merge through `plan_merge`/`execute_merge`, `contest_open_tick`,
`selection_owner`, the review cycle) at small sizes, so a break in them
shows here and not only when the benchmark runs."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_benchmark_selftest_accepts_real_output_and_rejects_each_fault():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("ok ") for line in lines), done.stdout
