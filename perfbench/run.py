#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vclab CLI.

Run from the repository root:

    python3 perfbench/run.py --workload {sample,enumerate,oracle} \\
        --seed N --seconds S --trace {0,1}

One process per run: it generates the workload's inputs from the seed,
then repeats passes over the workload's job list, calling
``vclab.cli.main(argv)`` in-process one job after another (closed loop,
one client, default ``--threads 1``) until ``--seconds`` have elapsed.
Every job's ``report.json`` result is checked and digested.  Reported
times are scaled to a fixed CPU speed by a reference task timed before each
pass (``reference_seconds``).

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(see ``spans.py``) plus the tracing overhead.  The last stdout line is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric's median and quartiles,
the per-job times, and the input and result digests.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MIN_SETUP_PROBES = 9
# What reference_seconds() takes at the CPU speed that reported times are
# scaled to: about its median on the 2-vCPU machine the bounds were set on.
REF_SECONDS = 0.06

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from spans import FEASIBLE, Tracer, count  # noqa: E402

# Runs in a fresh interpreter to time process start until the first job is
# ready: importing vclab plus generating the inputs.  "-I -S" keeps the
# host's site-packages hooks, which vclab does not need, out of the time.
PROBE = """\
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import vclab.cli, workloads
workloads.write_inputs(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
"""


def load_vclab():
    """Import vclab from this checkout's src/, or return None."""
    sys.path.insert(0, str(SRC))
    import vclab.cli
    if Path(vclab.cli.__file__).resolve().parent != SRC / "vclab":
        return None
    return vclab.cli


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_seconds() -> float:
    """Time a fixed task shaped like vclab's hot loops (Fraction arithmetic,
    hashing tuples of Fractions into a dict).  Its time tracks the current
    speed of the CPU, which on a shared machine drifts by up to 1.7x within
    minutes; it does not depend on vclab."""
    t0 = perf_counter()
    counts: dict = {}
    for k in range(8000):
        key = (Fraction(k % 101, 7) + Fraction(1, 3), k & 7)
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - t0


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    vclab and written the workload's inputs."""
    out = workdir / "probe"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC),
                    str(BENCH), workload, str(seed), str(out)],
                   check=True, stdout=subprocess.DEVNULL)
    dt = perf_counter() - t0
    shutil.rmtree(out)
    return dt


class Run:
    """One benchmark run: its jobs, their checks, failures and digests."""

    def __init__(self, cli, jobs: list[workloads.Job]):
        self.cli = cli
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.results: dict[str, dict] = {}  # latest result payload per job

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def one_pass(self, tracer: Tracer | None = None):
        """Run every job once.  Returns (pass wall time, per-metric job
        time, per-job trace records or None)."""
        job_times: Counter = Counter()
        records = [] if tracer else None
        codes = []
        if tracer:
            tracer.install()
        try:
            t_pass = perf_counter()
            for job in self.jobs:
                sink = io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        code = self.cli.main(list(job.argv))
                except Exception:  # a crash is a failed job, not a dead run
                    code = traceback.format_exc()
                job_times[job.metric] += perf_counter() - t0
                codes.append((code, sink.getvalue()))
                if tracer:
                    records.append(tracer.take())
            wall = perf_counter() - t_pass
        finally:
            if tracer:
                tracer.uninstall()
        for job, (code, output) in zip(self.jobs, codes):
            self.attempted += 1
            self.check(job, code, output)
        return wall, job_times, records

    def check(self, job: workloads.Job, code, output: str) -> None:
        if code != 0:
            self.fail(f"{job.name}: exit {code}\n{output}")
            return
        try:
            result = json.loads(job.report.read_text())["result"]
            self.results[job.name] = result
            job.check(result)
        except (workloads.CheckError, OSError, KeyError, TypeError,
                ValueError) as exc:
            self.fail(f"{job.name}: {exc!r}")
            return
        digest = sha256_json(result)
        if self.digests.setdefault(job.name, digest) != digest:
            self.fail(f"{job.name}: result digest changed between passes")


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced passes

SELF_S = (
    "spaces.fm_witness", "spaces.halfspace_dichotomies",
    "spaces.HalfspaceSpace.dichotomies", "spaces.threshold_dichotomies",
    "formula.eval_formula", "formula.DefinableSpace.dichotomies",
    "combinatorics.vc_dimension", "combinatorics.growth_function",
    "model.MultiSample.label_counts", "model.MultiSample.instances_sorted",
    "model.true_error", "model.ExplicitSpace.dichotomies",
    "learners.LearningFunction.__call__", "harness.draw_multisample",
    "harness.estimate_pac_probability", "harness.estimate_ucp_probability",
    "nfl.build_nfl_instance", "nfl.nfl_report", "cli.main", "serialize.load",
)
CALLS = (
    "spaces.fm_witness", "spaces.threshold_dichotomies", "formula.eval_formula",
    "model.MultiSample.label_counts", "model.true_error",
    "model.ExplicitSpace.dichotomies", "learners.LearningFunction.__call__",
)


def nfl_required_calls(m: int) -> int:
    """Learner applications of the full NFL enumeration: (2m)^m tuples
    times 2^(2m) labelings."""
    return (2 * m) ** m * 2 ** (2 * m)


def layer_counts(run: Run, records) -> dict[str, dict]:
    """Count metrics of one traced pass, checking each against a count the
    benchmark knows independently."""
    calls: Counter = Counter()
    events: Counter = Counter()
    nfl_calls = nfl_jobs = 0
    for job, (job_calls, _, job_events) in zip(run.jobs, records):
        calls.update(job_calls)
        events.update(job_events)
        if job.argv[0] == "vcdim":
            subsets = count(job_calls, "model.HypothesisSpace.dichotomy_count",
                            "combinatorics.vc_dimension")
            nodes = run.results[job.name]["nodes_used"]
            if subsets != nodes:
                run.fail(f"{job.name}: traced {subsets} subsets, "
                         f"nodes_used is {nodes}")
        if job.argv[0] == "nfl":
            n = count(job_calls, "learners.LearningFunction.__call__",
                      "nfl.nfl_report")
            if not 0 < n <= nfl_required_calls(workloads.NFL_M):
                run.fail(f"{job.name}: {n} learner calls, at most "
                         f"{nfl_required_calls(workloads.NFL_M)} expected")
            nfl_calls += n
            nfl_jobs += 1
    trials = count(calls, "harness.trial_seed")
    requested = sum(job.trials for job in run.jobs)
    if trials != requested:
        run.fail(f"traced {trials} trials, jobs asked for {requested}")
    out = {f"{name}.calls": metric(count(calls, name), "count")
           for name in CALLS}
    fm_calls = count(calls, "spaces.fm_witness")
    out["spaces.fm_witness.feasible_ratio"] = metric(
        events[FEASIBLE] / fm_calls if fm_calls else 0.0, "ratio")
    out["combinatorics.vc_dimension.subsets"] = metric(count(
        calls, "model.HypothesisSpace.dichotomy_count",
        "combinatorics.vc_dimension"), "count")
    out["harness.trials"] = metric(trials, "count")
    out["nfl.learner_calls_per_state"] = metric(
        nfl_calls / (nfl_jobs * nfl_required_calls(workloads.NFL_M))
        if nfl_jobs else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------


def summarize(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = quartiles(values)
    print(f"{name:44s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
          f"n={len(values)}  [{' '.join(f'{v:.4g}' for v in values)}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vclab" / "__init__.py").is_file():
        print(f"error: no vclab sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    if not args.trace:
        # Uncounted: warms the file cache and writes the .pyc files.
        time_setup(args.workload, args.seed, workdir)
    cli = load_vclab()
    if cli is None:
        print(f"error: could not import vclab from {SRC}", file=sys.stderr)
        return 2
    files = workloads.write_inputs(args.workload, args.seed, workdir / "inputs")
    jobs = workloads.build_jobs(args.workload, args.seed, files,
                                workdir / "out")
    run = Run(cli, jobs)

    setup_times: list[float] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    refs: list[float] = []
    traced_walls: list[float] = []
    job_times: dict[str, list[float]] = {}
    layer_self: dict[str, list[float]] = {}
    counts = None
    t_end = perf_counter() + args.seconds
    last_round = 0.0
    # Start another round (an untraced pass, plus a traced one with --trace 1)
    # only if one more as long as the last still ends within --seconds.
    while not walls or perf_counter() + last_round <= t_end:
        t_round = perf_counter()
        scale = 1.0  # traced runs report only ratios and per-layer times
        if not args.trace:
            # Times of this round are scaled to the speed at which the
            # reference task takes REF_SECONDS.  One set-up probe per round
            # spreads the probes over the run like the passes.
            refs.append(reference_seconds())
            scale = REF_SECONDS / refs[-1]
            setup_times.append(
                time_setup(args.workload, args.seed, workdir) * scale)
        wall, per_job, _ = run.one_pass()
        raw_walls.append(wall)
        walls.append(wall * scale)
        for name, t in per_job.items():
            job_times.setdefault(name, []).append(t * scale)
        if args.trace:
            wall, _, records = run.one_pass(Tracer())
            traced_walls.append(wall)
            self_s: Counter = Counter()
            for _, job_self, _ in records:
                self_s.update(job_self)
            for name in SELF_S:
                layer_self.setdefault(name, []).append(self_s[name])
            pass_counts = layer_counts(run, records)
            if counts is None:
                counts = pass_counts
            elif pass_counts != counts:
                run.fail(f"count metrics changed between traced passes: "
                         f"{counts} != {pass_counts}")
        last_round = perf_counter() - t_round
    while not args.trace and len(setup_times) < MIN_SETUP_PROBES:
        refs.append(reference_seconds())
        setup_times.append(time_setup(args.workload, args.seed, workdir)
                           * REF_SECONDS / refs[-1])

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"trace {args.trace}  python {sys.version.split()[0]}")
    for role, path in sorted(files.items()):
        print(f"input  {role:20s} sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
    for name, digest in sorted(run.digests.items()):
        print(f"result {name:20s} sha256 {digest}")
    print(f"results_sha256 {sha256_json(sorted(run.digests.items()))}")
    summarize("wall_s", walls, "s")
    for name, values in job_times.items():
        summarize(name, values, "s")

    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        summarize("traced wall_s", traced_walls, "s")
        metrics = {f"{name}.self_s": metric(statistics.median(v), "s")
                   for name, v in layer_self.items()}
        metrics.update(counts)
        metrics["trace_overhead"] = metric(overhead, "ratio")
        for name, m in sorted(metrics.items()):
            print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summarize("setup_s", setup_times, "s")
        summarize("unscaled wall_s", raw_walls, "s")
        summarize("reference_seconds", refs, "s")
        print(f"{'peak_rss_mib':44s} {peak_mib:.6g} MiB")
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mib": metric(peak_mib, "MiB"),
        }

    failed = len(run.failures)
    print(f"fail_ratio {failed}/{run.attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
