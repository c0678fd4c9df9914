"""Record the sha256 of every job output of the default seed's job lists.

    python3 perfbench/record_digests.py [--seconds 60]

Run from the root of a checkout, at the commit whose outputs are the
reference.  run.py then requires every job of a run at the default seed to
reproduce its recorded digest (hibikit's CLI output is byte-deterministic).
The lists recorded are those for --seconds, so they cover every shorter run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    digests = {}
    for name, workload in WORKLOADS.items():
        workdir = run.WORK / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        loop = run.Loop(name, run.DEFAULT_SEED, workdir, {})
        worker = run.Worker()
        try:
            loop.run_units(worker, workload.list_units(args.seconds))
            worker.finish()
        finally:
            worker.close()
        if loop.problems:
            print("\n".join(loop.problems), file=sys.stderr)
            return 1
        digests[name] = {" ".join(job["argv"]): job["sha256"] for job in loop.jobs}
        print(f"{name}: {len(digests[name])} distinct jobs")
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
