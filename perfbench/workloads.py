"""Workload definitions for the vclab CLI benchmark.

A workload is a fixed list of CLI jobs over inputs generated from the
workload seed.  ``write_inputs`` turns a seed into input files;
``build_jobs`` turns those files into argv lists for ``vclab.cli.main``.
Each job carries an output check that reads only the ``result`` payload of
its ``report.json`` and compares it with facts known independently of the
code under test (Cover's counting function, the no-free-lunch floors,
Wilson's interval formula).

This module imports nothing from vclab, so input generation is the same
whatever the package's internals become.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("sample", "enumerate", "oracle")

SUPPORT_SIZE = 10
# m0_pac(eps=0.5, delta=0.5, d=1) for thresholds: the PAC sample bound itself.
PAC_M = 75075
PAC_TRIALS = 3
UCP_M = 600
UCP_TRIALS = 1000
EXACT_M = 3
NFL_M = 3
NFL_BUILTINS = ("sem", "memorize", "const0")
NFL_RANDOM_LEARNERS = 1
HALFSPACE_POOL = 8
GROWTH_M = 7
HALFSPACE_DIM = 2
FORMULA_POOL = 6
FORMULA_GRID = 21


class CheckError(Exception):
    """A job's result contradicts a fact the benchmark knows independently."""


@dataclass(frozen=True)
class Job:
    name: str        # unique within the workload
    metric: str      # per-job time metric this job's time adds to
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    out: Path        # the job's --out directory
    trials: int = 0  # Monte Carlo trials the job asks for

    @property
    def report(self) -> Path:
        return self.out / "report.json"


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}:{part}")


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Input generation


def _support(rng: random.Random) -> dict:
    xs = sorted(rng.sample(range(100), SUPPORT_SIZE))
    labels = [rng.randint(0, 1) for _ in xs]
    raw = [rng.randint(1, 9) for _ in xs]
    total = sum(raw)
    return {"support": [[x, y] for x, y in zip(xs, labels)],
            "weights": [str(Fraction(r, total)) for r in raw]}


def _collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def _general_position_points(rng: random.Random, n: int) -> list[list[int]]:
    """n distinct integer points in the plane, no three collinear."""
    points: list[list[int]] = []
    while len(points) < n:
        cand = [rng.randint(-20, 20), rng.randint(-20, 20)]
        if cand in points:
            continue
        if any(_collinear(p, q, cand)
               for i, p in enumerate(points) for q in points[i + 1:]):
            continue
        points.append(cand)
    return points


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files for ``seed``; return them by role."""
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}

    def put(role: str, obj) -> None:
        files[role] = directory / f"{role}.json"
        _dump(files[role], obj)

    if workload in ("sample", "enumerate"):
        put("space", {"kind": "threshold-family"})
        put("dist", _support(_rng(workload, seed, "support")))
        if workload == "enumerate":
            rng = _rng(workload, seed, "learners")
            put("learners", {"random_seeds": [rng.randrange(10 ** 6)
                                              for _ in range(NFL_RANDOM_LEARNERS)]})
    elif workload == "oracle":
        points = _general_position_points(_rng(workload, seed, "points"),
                                          HALFSPACE_POOL)
        put("halfspace", {"kind": "halfspace-family", "dim": HALFSPACE_DIM})
        put("pool_vcdim", {"instances": points})
        put("pool_growth", {"instances": points[:GROWTH_M]})
        pool = sorted(_rng(workload, seed, "formula").sample(
            range(FORMULA_GRID // 2 - 1), FORMULA_POOL))
        # Half-integers from -1 up, one axis per interval end: they put a
        # cut between any two pool points and on both sides of the pool, so
        # intervals shatter every pair but no triple (VC dimension 2).
        axis = [str(Fraction(k, 2)) for k in range(-2, FORMULA_GRID - 2)]
        put("interval", {"kind": "formula-defined",
                         "formula": "a <= x and x <= b",
                         "objects": ["x"], "params": ["a", "b"],
                         "source": {"type": "grid", "axes": [axis, axis]}})
        put("pool_formula", {"instances": pool})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


# ---------------------------------------------------------------------------
# Output checks


def _wilson(successes: int, trials: int, z: float = 1.959963984540054):
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z2 / (4 * trials * trials))
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_monte_carlo(trials: int) -> Callable[[dict], None]:
    def check(result: dict) -> None:
        _require(result["mode"] == "monte-carlo", f"mode {result['mode']!r}")
        _require(result["trials"] == trials,
                 f"ran {result['trials']} trials, asked for {trials}")
        s = result["successes"]
        _require(0 <= s <= trials, f"successes {s} outside [0, {trials}]")
        _require(result["estimate"] == s / trials,
                 f"estimate {result['estimate']} != {s}/{trials}")
        lo, hi = result["ci95"]
        _require(lo <= result["estimate"] <= hi,
                 f"Wilson interval [{lo}, {hi}] misses the estimate")
        want = _wilson(s, trials)
        _require(all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                     for a, b in zip((lo, hi), want)),
                 f"Wilson interval [{lo}, {hi}] != recomputed {want}")
    return check


def check_exact(result: dict) -> None:
    _require(result["mode"] == "exact", f"mode {result['mode']!r}")
    p = Fraction(result["probability"])
    _require(0 <= p <= 1, f"probability {p} outside [0, 1]")
    _require(result["estimate"] == float(p),
             f"estimate {result['estimate']} != float({p})")


def check_nfl(result: dict) -> None:
    _require(result["passed"] is True, "NFL report did not pass")
    _require(len(result["expected_errors"]) == 2 ** (2 * NFL_M),
             "expected one error per labeling")
    _require(Fraction(result["max_expected_error"]) >= Fraction(1, 4),
             f"max expected error {result['max_expected_error']} < 1/4")
    _require(Fraction(result["tail_probability"]) >= Fraction(1, 7),
             f"tail {result['tail_probability']} < 1/7")


def check_vcdim(value: int, status: str | None) -> Callable[[dict], None]:
    def check(result: dict) -> None:
        _require(result["value"] == value,
                 f"VC dimension {result['value']}, expected {value}")
        if status is not None:
            _require(result["status"] == status,
                     f"status {result['status']!r}, expected {status!r}")
        _require(len(result["witness"]["instances"]) == value
                 and len(result["witness"]["dichotomies"]) == 2 ** value,
                 "witness set is not shattered")
    return check


def cover_count(n: int, d: int) -> int:
    """Labelings of n points in general position in R^d cut by affine
    halfspaces (Cover 1965): 2 * sum_{i<=d} C(n-1, i)."""
    return 2 * sum(math.comb(n - 1, i) for i in range(d + 1))


def check_growth(result: dict) -> None:
    want = cover_count(GROWTH_M, HALFSPACE_DIM)
    _require(result["value"] == want,
             f"growth {result['value']}, Cover's count is {want}")


# ---------------------------------------------------------------------------
# Job lists


def build_jobs(workload: str, seed: int, files: dict[str, Path],
               out: Path) -> list[Job]:
    def job(name, metric, argv, check, trials=0):
        return Job(name, metric, tuple(argv) + ("--out", str(out / name)),
                   check, out / name, trials)

    if workload == "oracle":
        return [
            job("vcdim_halfspace", "vcdim_halfspace_s",
                ["vcdim", "--space", str(files["halfspace"]),
                 "--pool", str(files["pool_vcdim"])],
                check_vcdim(HALFSPACE_DIM + 1, "exact")),
            job("growth_halfspace", "growth_halfspace_s",
                ["growth", "--space", str(files["halfspace"]),
                 "--pool", str(files["pool_growth"]), "--m", str(GROWTH_M)],
                check_growth),
            job("vcdim_formula", "vcdim_formula_s",
                ["vcdim", "--space", str(files["interval"]),
                 "--pool", str(files["pool_formula"])],
                check_vcdim(2, None)),
        ]
    space, dist = str(files["space"]), str(files["dist"])
    if workload == "sample":
        return [
            job("pac_mc", "pac_mc_s",
                ["pac-sim", "--space", space, "--dist", dist,
                 "--m", str(PAC_M), "--eps", "0.5", "--trials", str(PAC_TRIALS),
                 "--seed", str(seed), "--learner", "builtin:sem"],
                check_monte_carlo(PAC_TRIALS), PAC_TRIALS),
            job("ucp_mc", "ucp_mc_s",
                ["ucp-sim", "--space", space, "--dist", dist,
                 "--m", str(UCP_M), "--eps", "0.1", "--trials", str(UCP_TRIALS),
                 "--seed", str(seed)],
                check_monte_carlo(UCP_TRIALS), UCP_TRIALS),
        ]
    if workload == "enumerate":
        seeds = json.loads(files["learners"].read_text())["random_seeds"]
        learners = ([f"builtin:{n}" for n in NFL_BUILTINS]
                    + [f"random:{s}" for s in seeds])
        jobs = [job(f"nfl_{i}", "nfl_s",
                    ["nfl", "--m", str(NFL_M), "--learner", ref], check_nfl)
                for i, ref in enumerate(learners)]
        jobs += [
            job("pac_exact", "exact_sim_s",
                ["pac-sim", "--space", space, "--dist", dist,
                 "--m", str(EXACT_M), "--eps", "0.25", "--exact",
                 "--seed", str(seed), "--learner", "builtin:sem"],
                check_exact),
            job("ucp_exact", "exact_sim_s",
                ["ucp-sim", "--space", space, "--dist", dist,
                 "--m", str(EXACT_M), "--eps", "0.25", "--exact",
                 "--seed", str(seed)],
                check_exact),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")

