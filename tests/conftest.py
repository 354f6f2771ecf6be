import importlib.util
import math
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from vclab import spaces
from vclab import (
    DiscreteDistribution,
    ExplicitSpace,
    Instance,
    MultiSample,
    Sample,
)
from vclab.model import index_states
from vclab.nfl import PROBE_ONE_IN


# The suite's wall time and the CPU time of its process are reported at the
# end of the session, each also scaled to a fixed CPU speed by perfbench's
# reference task.  The machine's speed drifts within minutes, so the task is
# timed at the start of the session, after half of its tests and at its
# end, and the median of the three is used.  The line also names the three
# slowest tests, setup and teardown included, with their unscaled wall times.
PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
_bench = None
_references: list[float] = []
_started = 0.0
_cpu_started = 0.0
_halfway = 0
_durations: dict[str, float] = {}


def pytest_sessionstart(session):
    global _bench, _started, _cpu_started
    path = sys.path[:]
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH_RUN)
    _bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(_bench)  # run.py puts perfbench/ on sys.path
    sys.path[:] = path
    _references.append(_bench.reference_seconds())
    _started = time.perf_counter()
    _cpu_started = time.process_time()


def pytest_collection_finish(session):
    global _halfway
    _halfway = len(session.items) // 2


def pytest_runtest_logfinish(nodeid, location):
    global _halfway
    _halfway -= 1
    if _halfway == 0:
        _references.append(_bench.reference_seconds())


def pytest_runtest_logreport(report):
    _durations[report.nodeid] = (_durations.get(report.nodeid, 0.0)
                                 + report.duration)


def pytest_terminal_summary(terminalreporter):
    wall = time.perf_counter() - _started
    cpu = time.process_time() - _cpu_started
    _references.append(_bench.reference_seconds())
    reference = statistics.median(_references)
    scale = _bench.REF_SECONDS / reference
    slowest = sorted(_durations.items(), key=lambda item: -item[1])[:3]
    terminalreporter.write_line(
        f"session time: {wall:.1f} s wall, {wall * scale:.1f} s scaled; "
        f"{cpu:.1f} s CPU, {cpu * scale:.1f} s scaled (reference task "
        f"median of {len(_references)}: {reference:.3f} s, scaled to "
        f"{_bench.REF_SECONDS} s); slowest: "
        + ", ".join(f"{nodeid} {seconds:.2f} s" for nodeid, seconds in slowest))


def atoms(n: int) -> list[Instance]:
    return [Instance.atom(f"s{i}") for i in range(n)]


def points(*values) -> list[Instance]:
    return [Instance.point(v) for v in values]


def heavier_first_state(index_states):
    """``index_states`` with the weight of its first state one too large."""
    def patched(k, m, ordered):
        for i, (idx, weight) in enumerate(index_states(k, m, ordered)):
            yield idx, weight + (i == 0)
    return patched


def random_explicit_space(rng: random.Random, max_instances: int = 6,
                          max_hypotheses: int = 16) -> ExplicitSpace:
    nx = rng.randint(1, max_instances)
    nh = rng.randint(1, max_hypotheses)
    domain = atoms(nx)
    rows = [[rng.randint(0, 1) for _ in range(nx)] for _ in range(nh)]
    return ExplicitSpace(domain, rows)


def random_distribution(rng: random.Random, instances,
                        max_support: int = 4) -> DiscreteDistribution:
    pairs = [(x, y) for x in instances for y in (0, 1)]
    rng.shuffle(pairs)
    k = rng.randint(1, min(max_support, len(pairs)))
    chosen = pairs[:k]
    raw = [rng.randint(1, 20) for _ in range(k)]
    total = sum(raw)
    return DiscreteDistribution(
        [(Sample(x, y), Fraction(w, total)) for (x, y), w in zip(chosen, raw)])


def random_multisample(rng: random.Random, instances, m: int) -> MultiSample:
    return MultiSample(tuple(
        Sample(rng.choice(instances), rng.randint(0, 1)) for _ in range(m)))


def reference_approximation_error(space, dist, require_exact=True):
    """The least weight a realized labeling of the support's instances
    gets wrong, summed in ``Fraction``s sample by sample: the form
    ``approximation_error`` had before it scored integer numerators."""
    instances = dist.instances()
    table = space.dichotomies(instances)
    assert space.oracle_exact or not require_exact
    position = {x: i for i, x in enumerate(instances)}
    return min(sum((w for z, w in dist.items()
                    if labeling[position[z.instance]] != z.label),
                   Fraction(0))
               for labeling in table)


def fm_solve(constraints, nvars):
    """``fm_witness`` on constraints (coeffs, const, strict) of int or
    Fraction entries: each is made the primitive row the kernel takes, and
    the integer point it returns, (den, n_1, ..., n_k) with den > 0, is read
    back as the Fractions n_i / den (or None)."""
    point = spaces.fm_witness(
        [(spaces._primitive(coeffs, const), strict)
         for coeffs, const, strict in constraints], nvars)
    if point is None:
        return None
    assert all(type(v) is int for v in point) and point[0] > 0
    assert len(point) == nvars + 1
    return tuple(Fraction(n, point[0]) for n in point[1:])


# ---------------------------------------------------------------------------
# Reference: Fourier-Motzkin elimination in Fraction arithmetic throughout,
# the form fm_witness had before it moved to integer rows.  The integer
# kernel must return exactly the same witnesses.  Constraints are
# (coeffs, const, strict) with Fraction entries.


def reference_normalize(con):
    coeffs, const, strict = con
    dens = [c.denominator for c in coeffs] + [const.denominator]
    scale = Fraction(1)
    for d in dens:
        scale *= d
    ints = [int(c * scale) for c in coeffs] + [int(const * scale)]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]), strict)


def reference_fm_witness(constraints, nvars):
    systems = []
    current = [reference_normalize(c) for c in constraints]
    for k in range(nvars - 1, -1, -1):
        systems.append(current)
        lowers, uppers, rest = [], [], []
        for coeffs, const, strict in current:
            a = coeffs[k]
            if a > 0:
                lowers.append((coeffs, const, strict))
            elif a < 0:
                uppers.append((coeffs, const, strict))
            else:
                rest.append((coeffs[:k], const, strict))
        combined = set(rest)
        for lc, lconst, lstrict in lowers:
            a = lc[k]
            for uc, uconst, ustrict in uppers:
                c = -uc[k]
                coeffs = tuple(lc[j] * c + uc[j] * a for j in range(k))
                const = lconst * c + uconst * a
                combined.add(reference_normalize(
                    (coeffs, const, lstrict or ustrict)))
        current = list(combined)
    for coeffs, const, strict in current:
        if const < 0 or (strict and const == 0):
            return None
    values = [Fraction(0)] * nvars
    for k in range(nvars):
        system = systems[nvars - 1 - k]
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, const, strict in system:
            a = coeffs[k]
            if a == 0:
                continue
            rest = const + sum(coeffs[j] * values[j] for j in range(k))
            bound = -rest / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            values[k] = Fraction(0)
        elif hi is None:
            values[k] = lo + 1 if lo_strict else lo
        elif lo is None:
            values[k] = hi - 1 if hi_strict else hi
        else:
            if lo == hi:
                if lo_strict or hi_strict:
                    return None
                values[k] = lo
            else:
                values[k] = (lo + hi) / 2
    for coeffs, const, strict in systems[0]:
        total = const + sum(c * v for c, v in zip(coeffs, values))
        if total < 0 or (strict and total == 0):
            return None
    return tuple(values)


# ---------------------------------------------------------------------------
# Reference: the halfspace sweep as ``spaces`` ran it before it grew realized
# prefixes point by point: ``fm_witness`` on the full system of every one
# of the 2^n labelings.  The prefix tree must list the same labelings, in
# the same order, with the same witness for each.  The kernel is bound at
# import, so that a test which counts or corrupts ``spaces.fm_witness``
# leaves the reference as it is.
SWEPT_FM_WITNESS = spaces.fm_witness


def sweep_dichotomies(rows, strict=False):
    """Every labeling of the rows (const, coeffs) that ``fm_witness``
    finds feasible on its full system, in lexicographic order, with the
    witness as Fractions: label 1 is const + coeffs . v >= 0 (> 0 when
    ``strict``), label 0 the negation."""
    nvars = len(rows[0][1])
    entries = [spaces._affine_entry(const, coeffs, strict)
               for const, coeffs in rows]
    out = []
    for labeling in product((0, 1), repeat=len(rows)):
        point = SWEPT_FM_WITNESS(
            [entry[lab] for entry, lab in zip(entries, labeling)], nvars)
        if point is not None:
            out.append((labeling, tuple(Fraction(v, point[0])
                                        for v in point[1:])))
    return out


def kernel_table(rows, strict=False):
    """``spaces.AffineWitnesses`` of the rows (const, coeffs), which checks
    its count against the bound its rows take (Cover's count or Sauer's
    sum_{i<=k} C(n, i) for n rows in k variables): label 1 is
    const + coeffs . v >= 0 (> 0 when ``strict``), label 0 the negation."""
    return spaces.AffineWitnesses([
        spaces._affine_entry(const, coeffs, strict)
        for const, coeffs in rows])


@pytest.fixture
def denominators_dropped(monkeypatch):
    """``spaces._primitive`` keeps each entry's numerator and drops its
    denominator, so the rows FM eliminates are wrong for fractional
    entries while the check rows stay right."""
    def numerators(coeffs, const):
        return tuple(v.numerator for v in (const, *coeffs))
    monkeypatch.setattr(spaces, "_primitive", numerators)


@pytest.fixture
def fm_calls(monkeypatch):
    """The systems ``spaces.fm_witness`` is called on, in order."""
    calls = []

    def counted(constraints, nvars):
        calls.append(constraints)
        return SWEPT_FM_WITNESS(constraints, nvars)
    monkeypatch.setattr(spaces, "fm_witness", counted)
    return calls


def sweep_table(pts):
    """``sweep_dichotomies`` of the halfspace rows (x, 1) of points given
    as coordinate tuples or as ``Instance`` points."""
    return sweep_dichotomies([(0, (*getattr(p, "coords", p), 1))
                              for p in pts])


# ---------------------------------------------------------------------------
# Reference: the NFL histogram walk as it was before it added up state
# weights per class, scoring every training sample's output on its own
# with a submask walk of the unused points and evaluating the output on
# every point of S.  It calls the learner, and draws the determinism
# probe, in the same order and number as ``nfl._enumerate``; its
# histograms must be identical.


def reference_submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def reference_enumerate(learner, inst):
    points = inst.instances
    n = len(points)
    bits = [1 << (n - 1 - j) for j in range(n)]
    labeled = [(Sample(x, 0), Sample(x, 1)) for x in points]
    ordered = not learner.order_invariant
    probe = random.Random(f"nfl-probe:{inst.m}")
    hist = [[0] * (n + 1) for _ in range(inst.t)]

    def learned_mask(zbar):
        h = learner(zbar)
        return sum(b for x, b in zip(points, bits) if h(x))

    first = True
    for idx, weight in index_states(n, inst.m, ordered):
        used = 0
        for a in idx:
            used |= bits[a]
        free = used ^ ((1 << n) - 1)
        for seen in reference_submasks(used):
            zbar = MultiSample(tuple(labeled[a][1 if seen & bits[a] else 0]
                                     for a in idx))
            mask = learned_mask(zbar)
            if first or probe.randrange(PROBE_ONE_IN) == 0:
                first = False
                again = zbar if ordered else MultiSample(zbar.samples[::-1])
                if learned_mask(again) != mask:
                    raise AssertionError("nondeterministic learner")
            for sub in reference_submasks(free):
                f = seen | sub
                hist[f][(mask ^ f).bit_count()] += weight
    return hist
