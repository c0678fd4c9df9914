"""The long-lived worker process: runs hibikit CLI jobs one at a time.

Started by run.py from the root of a checkout as
`python3 perfbench/worker.py [--trace SPANS_FILE]`.  Reads one JSON request
per line on stdin: {"argv": [...], "job": n} runs hibikit.cli.main(argv)
with stdout and stderr captured, {"end": true} finishes.  Writes one JSON
reply per line on its own stdout.  With --trace, the tracer wraps the
package's public functions before the first job, and the end reply carries
the per-layer aggregates; the raw spans go to SPANS_FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def serve(channel_in, channel_out, tracer) -> None:
    import hibikit.cli

    for line in channel_in:
        request = json.loads(line)
        if request.get("end"):
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply["trace"] = tracer.summary()
            channel_out.write(json.dumps(reply) + "\n")
            channel_out.flush()
            return
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.job = request["job"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = hibikit.cli.main(request["argv"])
        except SystemExit as stop:  # argparse rejects bad argv this way
            rc = stop.code if isinstance(stop.code, int) else 2
        except Exception:  # a job's crash is a failed job, not a dead worker
            rc = None
            exc = traceback.format_exc()
        wall = time.perf_counter() - start
        channel_out.write(json.dumps({"rc": rc, "out": out.getvalue(),
                                      "err": err.getvalue(), "exc": exc,
                                      "wall_s": wall}) + "\n")
        channel_out.flush()


def main() -> None:
    channel_out = sys.stdout
    tracer = None
    if len(sys.argv) == 3 and sys.argv[1] == "--trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        serve(sys.stdin, channel_out, tracer)
    finally:
        if tracer is not None:
            tracer.write_spans(sys.argv[2])


if __name__ == "__main__":
    main()
