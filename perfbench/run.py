"""hibikit benchmark: closed-loop CLI jobs against one long-lived worker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify|faces|polytopes \
        --seed N --seconds S --trace 0|1

One client sends the next job only after the previous one finished and was
checked; the worker (perfbench/worker.py) runs hibikit.cli.main(argv) at the
program's defaults (HIBI_MAX_THREADS unset: single-threaded).  A run
measures the workload's fixed job list for S: the units that take about S
seconds at the seed commit (see workloads.py).  Everything runs on one CPU,
and job times are scaled by that CPU's speed, measured between jobs with a
reference kernel (see REF_NOMINAL_S); unscaled figures are printed too.

--trace 0 reports the end-to-end metrics; --trace 1 runs the job list for
S/2 twice, first untraced and then in a fresh traced worker, and reports
the per-layer metrics with the tracing overhead.  The last line of stdout is
one JSON object; the lines before it print every metric by name with its
unit.  A job fails on a nonzero exit, an exception, or a failed output
check; at the default seed every output must also match its recorded
sha256 digest.  The seed, the inputs and the results of each run are
written to .perfbench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

DEFAULT_SEED = 1
SETUP_LAUNCHES = 9
WORK = Path(".perfbench_work")
SETUP_CODE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import hibikit.cli\n"
    "with contextlib.redirect_stderr(io.StringIO()):\n"
    "    try:\n"
    "        hibikit.cli.main([])\n"  # builds the parser, then rejects empty argv
    "    except SystemExit:\n"
    "        pass\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


# Each CPU of the host drifts in speed by up to 1.5x over seconds to
# minutes, and jobs slow down with it.  The benchmark pins itself and every
# process it starts to one CPU, times this kernel there between jobs (while
# the worker is idle), and reports job times scaled to the kernel's time at
# the calibration host's nominal speed, REF_NOMINAL_S.  Raw times are
# printed and kept in result.json as well.
REF_NOMINAL_S = 0.010
REF_MATRIX = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(14)]
              for rng in [random.Random(1)] for _ in range(14)]


def reference_kernel() -> float:
    """Seconds for an exact Gauss-Jordan elimination of a fixed 14x14
    rational matrix, the mean of two: the kind of work hibikit's jobs do
    (Fraction arithmetic, many short-lived objects), done by the benchmark
    itself."""
    start = time.perf_counter()
    for _ in range(2):
        rows = [row[:] for row in REF_MATRIX]
        n = len(rows)
        for c in range(n):
            p = next(r for r in range(c, n) if rows[r][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(n):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return (time.perf_counter() - start) / 2


def speed_factor(ref_before: float, ref_after: float) -> float:
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("HIBI_MAX_THREADS", None)
    # hibikit's running time depends on set iteration order (certify on B3
    # takes 3.2-4.8 s across hash seeds), so the hash seed is pinned: runs
    # then differ only in the inputs the workload seed generates
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    def __init__(self, spans_file: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if spans_file is not None:
            cmd += ["--trace", str(spans_file)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=worker_env(), text=True, encoding="utf-8")
        self.jobs = 0

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        self.jobs += 1
        return self._ask({"argv": argv, "job": self.jobs})

    def finish(self) -> dict:
        return self._ask({"end": True})

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh interpreter to ready (import hibikit.cli, build the parser),
    timed from launch to the ready line, once unmeasured and then
    SETUP_LAUNCHES times; scaled and raw times."""
    scaled, raw = [], []
    reference_kernel()
    ref = reference_kernel()
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                                env=worker_env(), text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("hibikit.cli did not import")
        ref_before, ref = ref, reference_kernel()
        if launch:
            scaled.append(elapsed * speed_factor(ref_before, ref))
            raw.append(elapsed)
    return scaled, raw


def load_digests(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads((HERE / "digests.json").read_text())[workload]


class Loop:
    """The closed loop: whole units, one job at a time, each output checked."""

    def __init__(self, workload: str, seed: int, workdir: Path, digests: dict):
        self.units = WORKLOADS[workload].units(seed, workdir)
        self.digests = digests
        self.records: list[dict] = []
        self.jobs: list[dict] = []
        self.problems: list[str] = []
        self.digests_checked = 0
        reference_kernel()  # warm
        self.ref_s = reference_kernel()

    def run_job(self, worker: Worker, job) -> str | None:
        start = time.perf_counter()
        reply = worker.run(job.argv)
        key = " ".join(job.argv)
        problem = None
        if reply["exc"] is not None:
            problem = "exception: " + reply["exc"].strip().splitlines()[-1]
        elif reply["rc"] != 0:
            problem = f"exit status {reply['rc']}: {reply['err'].strip()[:200]}"
        else:
            try:
                job.check(reply["out"])
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                problem = f"check: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(reply["out"].encode("utf-8")).hexdigest()
        if problem is None and key in self.digests:
            self.digests_checked += 1
            if self.digests[key] != digest:
                problem = "output differs from the recorded digest"
        loop_s = time.perf_counter() - start
        ref_before, self.ref_s = self.ref_s, reference_kernel()
        speed = speed_factor(ref_before, self.ref_s)
        self.jobs.append({"argv": job.argv, "wall_s": reply["wall_s"], "loop_s": loop_s,
                          "speed": speed, "ok": problem is None, "sha256": digest})
        if problem is not None:
            self.problems.append(f"{key}: {problem}")
            return None
        return reply["out"]

    def run_unit(self, worker: Worker) -> None:
        unit = next(self.units)
        try:
            job = next(unit.steps)
            while True:
                job = unit.steps.send(self.run_job(worker, job))
        except StopIteration:
            pass
        self.records.append({"unit": unit.name, "repeat": unit.repeat,
                             "inputs": unit.inputs})

    def run_units(self, worker: Worker, count: int) -> None:
        for _ in range(count):
            self.run_unit(worker)

    def loop_s(self, scaled: bool = True) -> float:
        """Closed-loop time: each job from sending it to the end of its check."""
        return sum(j["loop_s"] * (j["speed"] if scaled else 1.0) for j in self.jobs)

    def job_s(self, scaled: bool = True) -> list[float]:
        return [j["wall_s"] * (j["speed"] if scaled else 1.0) for j in self.jobs]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Loop, dict]:
    setup, setup_raw = measure_setup()
    loop = Loop(workload, seed, workdir, load_digests(workload, seed))
    worker = Worker()
    try:
        loop.run_units(worker, WORKLOADS[workload].list_units(seconds))
        end = worker.finish()
    finally:
        worker.close()
    times = loop.job_s()
    tail_value, tail_pct = tail(times)
    metrics = {
        "jobs_per_s": metric(len(times) / loop.loop_s(), "1/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(end["maxrss_kb"] / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    raw = loop.job_s(scaled=False)
    extra = {"tail_percentile": tail_pct, "jobs": len(times), "units": len(loop.records),
             "setup_samples_s": setup,
             "raw": {"jobs_per_s": len(raw) / loop.loop_s(scaled=False),
                     "job_p50_s": statistics.median(raw), "job_tail_s": tail(raw)[0],
                     "setup_s": statistics.median(setup_raw)},
             "speed_median": statistics.median(j["speed"] for j in loop.jobs)}
    return metrics, loop, extra


def per_layer(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Loop, dict]:
    # the list for half the time, run twice, keeps a traced run about as
    # long as an untraced one
    units = WORKLOADS[workload].list_units(seconds / 2)
    plain = Loop(workload, seed, workdir, load_digests(workload, seed))
    worker = Worker()
    try:
        plain.run_units(worker, units)
        worker.finish()
    finally:
        worker.close()
    loop = Loop(workload, seed, workdir, load_digests(workload, seed))
    worker = Worker(spans_file=workdir / "spans.csv.gz")
    try:
        loop.run_units(worker, units)
        trace = worker.finish()["trace"]
    finally:
        worker.close()
    traced = loop.loop_s(scaled=False)
    overhead = loop.loop_s() / plain.loop_s() - 1.0
    loop.problems += plain.problems
    loop.jobs += plain.jobs

    layer_self = trace["layer_self_s"]
    group, incl = trace["group_self_s"], trace["incl_s"]
    calls, counts = trace["calls"], trace["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    s, c, r = "s", "count", "ratio"
    m = {}
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = metric(value, s)
    m["poset.linear_extensions.calls"] = metric(calls["poset.linear_extensions"], c)
    m["lattice.diamond_pairs.calls"] = metric(calls["lattice.diamond_pairs"], c)
    m["exactgeom.simplex.self_s"] = metric(group["exactgeom.simplex"], s)
    m["exactgeom.simplex.solves"] = metric(calls["exactgeom.solve_eq_nonneg"], c)
    m["exactgeom.simplex.cells"] = metric(counts["simplex.cells"], c)
    m["exactgeom.lp_feasible.incl_s"] = metric(incl["exactgeom.lp_feasible"], s)
    m["exactgeom.lp_feasible.calls"] = metric(calls["exactgeom.lp_feasible"], c)
    m["exactgeom.lp_feasible.feasible_ratio"] = metric(
        ratio(counts["lp.feasible"], calls["exactgeom.lp_feasible"]), r)
    m["exactgeom.convex_combination.incl_s"] = metric(incl["exactgeom.convex_combination"], s)
    m["exactgeom.convex_combination.calls"] = metric(calls["exactgeom.convex_combination"], c)
    m["exactgeom.hull_vertices.incl_s"] = metric(incl["exactgeom.hull_vertices"], s)
    m["exactgeom.facet_hyperplanes.self_s"] = metric(group["exactgeom.facet_hyperplanes"], s)
    m["exactgeom.facet_hyperplanes.subsets"] = metric(counts["facets.subsets"], c)
    m["exactgeom.facet_hyperplanes.yield"] = metric(
        ratio(counts["facets.found"], counts["facets.subsets"]), r)
    m["exactgeom.linalg.self_s"] = metric(group["exactgeom.linalg"], s)
    m["exactgeom.integer_points.self_s"] = metric(group["exactgeom.integer_points"], s)
    m["exactgeom.intlattice.self_s"] = metric(group["exactgeom.intlattice"], s)
    m["cone.cone_K.calls"] = metric(calls["cone.cone_K"], c)
    m["cone.cone_K.incl_s"] = metric(incl["cone.cone_K"], s)
    m["cone.enumerate_faces.calls"] = metric(calls["cone.enumerate_faces"], c)
    m["cone.enumerate_faces.incl_s"] = metric(incl["cone.enumerate_faces"], s)
    m["cone.enumerate_faces.yield"] = metric(
        ratio(counts["faces.found"], counts["faces.candidates"]), r)
    m["cone.enumerate_faces.repeat_share"] = metric(
        ratio(counts["faces.repeats"], calls["cone.enumerate_faces"]), r)
    m["subdivision.regular_subdivision.calls"] = metric(
        calls["subdivision.regular_subdivision"], c)
    m["subdivision.adjacency_graph.calls"] = metric(calls["subdivision.adjacency_graph"], c)
    m["subdivision.adjacency_graph.incl_s"] = metric(incl["subdivision.adjacency_graph"], s)
    m["hibi.initial_ideal_dim.incl_s"] = metric(incl["hibi.initial_ideal_dim"], s)
    m["hibi.intersection_dim.incl_s"] = metric(incl["hibi.intersection_dim"], s)
    m["hibi.standard_monomial_count.incl_s"] = metric(
        incl["hibi.standard_monomial_count"], s)
    m["hibi.degree_basis"] = metric(counts["hibi.degree_basis"], c)
    m["weightpoly.weight_polytope.incl_s"] = metric(incl["weightpoly.weight_polytope"], s)
    m["weightpoly.distinguished_faces.incl_s"] = metric(
        incl["weightpoly.distinguished_faces"], s)
    m["flaggt.gt_vertices.incl_s"] = metric(incl["flaggt.gt_vertices"], s)
    m["flaggt.gt_subdivision.incl_s"] = metric(incl["flaggt.gt_subdivision"], s)
    m["flaggt.component_shape.calls"] = metric(calls["flaggt.component_shape"], c)
    m["flaggt.marked_order_polytope.calls"] = metric(calls["flaggt.marked_order_polytope"], c)
    m["cli.serialize_s"] = metric(group["cli.serialize"], s)
    m["traced_wall_s"] = metric(traced, s)
    m["remainder_s"] = metric(traced - sum(layer_self.values()), s)
    m["trace_overhead"] = metric(overhead, r)
    extra = {"untraced_wall_s": plain.loop_s(scaled=False), "traced_wall_s": traced,
             "units": len(loop.records), "spans": trace["spans"],
             "tracer_self_s": trace["tracer_self_s"]}
    return m, loop, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not Path("src/hibikit/cli.py").is_file():
        print("run from the root of a hibikit checkout: src/hibikit/cli.py not found",
              file=sys.stderr)
        return 2
    # children inherit the affinity, so the worker, the set-up launches and
    # the reference kernel all run on this CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    measure = per_layer if args.trace else end_to_end
    metrics, loop, extra = measure(args.workload, args.seed, args.seconds, workdir)
    attempted, failed = len(loop.jobs), len(loop.problems)

    for problem in loop.problems[:20]:
        print("FAILED", problem, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {extra['units']}  jobs {attempted}  "
          f"repeated units {sum(r['repeat'] for r in loop.records)}  "
          f"digests checked {loop.digests_checked}")
    print(f"fail_ratio {failed / attempted!r} (ratio)")
    if not args.trace:
        print(f"job_tail_s is the p{extra['tail_percentile']:.1f} job wall time "
              f"over {attempted} jobs")
        print(f"times are scaled by the host speed factor (median "
              f"{extra['speed_median']:.4f}); unscaled:")
        for name, value in extra["raw"].items():
            print(f"  raw {name} {value!r}")
    else:
        wall = extra["traced_wall_s"]
        for name in sorted(metrics):
            if name.endswith("self_s") or name == "cli.serialize_s":
                print(f"share {name} {metrics[name]['value'] / wall:.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} ({m['unit']})")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "extra": extra,
              "problems": loop.problems, "units": loop.records, "jobs": loop.jobs}
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
