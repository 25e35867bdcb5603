"""Pin the stdout digest of every job at the default seed.

    python3 perfbench/pin_digests.py

Writes perfbench/digests.json.  Re-pin only for a change that alters
discarr's output on purpose, and say in that change why the bytes moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import DEFAULT_SEED, HERE, ROOT, Runner
from workloads import WORKLOADS


def main() -> int:
    pinned = {}
    work = ROOT / ".perfbench_work" / str(os.getpid())
    for name, make in WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            runner = Runner(make(DEFAULT_SEED), DEFAULT_SEED, work, time.perf_counter(), None)
            runner.setup()
            pinned[name] = {}
            ctx: dict = {}
            for job in runner.workload.jobs:
                run = runner.run_job(job, ctx, traced=False)
                if run.error:
                    print(f"not pinning {name}: {job.key} failed", file=sys.stderr)
                    return 1
                out = (work / (job.save_as or "stdout.txt")).read_bytes()
                pinned[name][job.key] = job.digest(out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
