"""Self-test of the traced run.

    python3 perfbench/selftest.py

Runs every workload once with --trace 1 and workload seed 1, and fails
unless each traced run is correct. A traced run is correct only when every
call gave its pinned answer in every mode (subprocess, in process, traced),
every report has the same report_sha256 with tracing on as with tracing
off, the package's spans account for all but 1% of the traced calls' time,
tracing costs at most 10%, and every layer the workload is meant to
exercise recorded at least one span.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# keep the benchmark's own directory free of bytecode caches
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def main() -> int:
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
             "--seconds", "1", "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"FAIL {name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        failures = record["detail"]["failures"] + record["detail"]["trace_problems"]
        status = "ok" if result["correct"] else "FAIL"
        ok = ok and result["correct"]
        print(f"{status} {name}: {result['attempted']} calls checked, "
              f"{record['detail']['spans']} spans, "
              f"trace.overhead {result['metrics']['trace.overhead']['value']:.3f}, "
              f"span wrappers {record['detail']['span_wrappers_s']:.4f}s")
        for f in failures:
            print(f"    {f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
