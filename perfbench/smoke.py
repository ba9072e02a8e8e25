"""The benchmark's own smoke test, at toy size (about 1 minute).

Run from the root of the repository::

    python3 perfbench/smoke.py

It checks that

* every workload runs at toy size (2 circuits, 3-point tau grid),
  plain and traced, with every design matching its pinned digest and
  exactly the metric names ``BENCHMARK.json`` declares;
* in the traced run every counted top-level span lies inside the
  operation that caused it, no operation's top-level spans add up to
  more than its latency, and ``unattributed`` is not negative -- so
  self times plus ``unattributed`` are the measured time, with nothing
  double-counted;
* a corrupted pinned digest makes the affected operations count as
  failures (``correct`` false), never as passes;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "smoke"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run ``run.py`` at toy size; (exit code, parsed result line)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7",
         "--seconds", "0", "--toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        for workload in ("explore-cold", "serve-warm", "cli-warm"):
            for trace, names in (("0", end_to_end), ("1", per_layer)):
                code, result = bench("--workload", workload,
                                     "--trace", trace)
                assert code == 0 and result is not None, (workload, trace)
                assert result["correct"] and result["failed"] == 0, result
                assert set(result["metrics"]) == names, \
                    sorted(set(result["metrics"]) ^ names)
                print(f"ok  {workload} --trace {trace}: "
                      f"{result['attempted']} ops")
            report = json.loads((ROOT / ".perfbench"
                                 / f"{workload}-trace.json").read_text())
            assert not report["misplaced_roots"], report["misplaced_roots"]
            unattributed = report["measured_s"] - report["roots_s"]
            assert unattributed >= 0, unattributed
            print(f"ok  {workload}: every top-level span inside its "
                  f"operation, unattributed {unattributed:.3f} s of "
                  f"{report['measured_s']:.3f} s measured")

        digests = json.loads((HERE / "digests.json").read_text())
        corrupt = "redwine/svm_r/coeff@toy"
        digests[corrupt]["sha256"] = "0" * 64
        corrupt_file = WORK / "digests.json"
        corrupt_file.write_text(json.dumps(digests))
        code, result = bench("--workload", "explore-cold", "--trace", "0",
                             "--digests", str(corrupt_file))
        assert code == 0 and result is not None
        assert not result["correct"] and result["failed"] == 1, result
        print(f"ok  corrupted digest: {result['failed']} of "
              f"{result['attempted']} ops failed")

        stripped = WORK / "stripped"
        stripped.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(HERE, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("--workload", "explore-cold", "--trace", "0",
                             cwd=stripped)
        assert code != 0 and result is None, (code, result)
        print(f"ok  without the program: exit {code}, no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
