"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction as F
from itertools import product, repeat

from vclab import (
    DefinableSpace,
    DiscreteDistribution,
    ExplicitSpace,
    HalfspaceSpace,
    Instance,
    IntervalSpace,
    MultiSample,
    Sample,
    SampledParams,
    ThresholdSpace,
    build_nfl_instance,
    builtin_learners,
    empirical_opt,
    estimate_pac_probability,
    estimate_ucp_probability,
    format_formula,
    growth_function,
    hoeffding_tail,
    m0_pac,
    m0_singleton,
    m0_ucp,
    epsilon0,
    nfl_report,
    parse_formula,
    random_table_learner,
    relu_graph_formula,
    sample_error,
    sauer_bound,
    sauer_poly_bound,
    sem_learner,
    shatters,
    signed_deviation,
    true_error,
    u_statistic,
    v_statistic,
    vc_dimension,
)
from vclab.formula import compile_formula
from conftest import (
    atoms,
    points,
    random_distribution,
    random_explicit_space,
    random_multisample,
)


def line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_sauer_shelah_property_suite():
    rng = random.Random(10_001)
    started = time.monotonic()
    violations = 0
    classes = 1000
    for _ in range(classes):
        space = random_explicit_space(rng, max_instances=8, max_hypotheses=64)
        pool = space.domain
        d = vc_dimension(space, pool).value
        for m in range(1, len(pool) + 1):
            g = growth_function(space, m, pool)
            if g > sauer_bound(d, m):
                violations += 1
            if d >= 1 and m > d + 1 and g > sauer_poly_bound(d, m):
                violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 60.0
    assert line(1, ok, f"{classes} random classes, {violations} violations, "
                       f"{elapsed:.1f}s")


def test_criterion_2_no_free_lunch_exact():
    started = time.monotonic()
    failures = []
    for m in (1, 2, 3):
        instances = atoms(2 * m)
        space = ExplicitSpace.full(instances)
        inst = build_nfl_instance(instances, m, ambient=space)
        learners = list(builtin_learners(space).values())
        learners += [random_table_learner(space, seed) for seed in range(100)]
        for learner in learners:
            report = nfl_report(learner, inst)
            if not (report.max_expected_error >= F(1, 4)
                    and report.tail_probability >= F(1, 7)):
                failures.append((m, learner.name))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300.0
    assert line(2, ok, f"m in {{1,2,3}}, 104 learners each, "
                       f"{len(failures)} failures, {elapsed:.1f}s "
                       "(determinism probe on about 1 in 8 samples)")


def test_criterion_3_singleton_concentration():
    eps = delta = 0.1
    m = m0_singleton(eps, delta)
    assert m == 600  # ceil(2*ln(20)/0.01), frozen from direct evaluation
    instances = points(1, 2, 3, 4, 5)
    space = ExplicitSpace(instances, [[0, 0, 1, 1, 1]])
    dist = DiscreteDistribution.uniform(
        [((1,), 1), ((2,), 0), ((3,), 1), ((4,), 0), ((5,), 1)])
    trials = 10_000
    report = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                      trials=trials, seed=2024)
    tail = 1.0 - report.estimate
    bound = hoeffding_tail(m, eps)
    se = (tail * (1.0 - tail) / trials) ** 0.5
    ok = report.estimate >= 1.0 - delta and tail <= bound + 3.0 * se
    assert line(3, ok, f"m={m}, trials={trials}, estimate={report.estimate:.4f}"
                       f" >= {1 - delta}, tail={tail:.5f} <= "
                       f"{bound:.5f} + 3se")


def test_criterion_4_uv_oracle_equivalence():
    rng = random.Random(40_004)
    classes = 500
    mismatches = 0
    for _ in range(classes):
        space = random_explicit_space(rng, max_instances=5, max_hypotheses=16)
        dist = random_distribution(rng, space.domain, max_support=4)
        m = rng.randint(1, 4)
        z1 = random_multisample(rng, space.domain, m)
        z2 = random_multisample(rng, space.domain, m)
        naive_u = max(abs(true_error(h, dist) - sample_error(h, z1))
                      for h in space.hypotheses())
        naive_v = max(abs(sample_error(h, z2) - sample_error(h, z1))
                      for h in space.hypotheses())
        if u_statistic(space, dist, z1) != naive_u:
            mismatches += 1
        if v_statistic(space, z1, z2) != naive_v:
            mismatches += 1
        eps = F(rng.randint(0, 4), 4)
        exact = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                         exact=True).probability
        brute = F(0)
        for combo in product(list(dist.items()), repeat=m):
            zbar = MultiSample(tuple(z for z, _ in combo))
            weight = F(1)
            for _, w in combo:
                weight *= w
            value = max(abs(true_error(h, dist) - sample_error(h, zbar))
                        for h in space.hypotheses())
            if value <= eps:
                brute += weight
        if exact != brute:
            mismatches += 1
    ok = mismatches == 0
    assert line(4, ok, f"{classes} random classes, {mismatches} mismatches "
                       "(u/v maxima and exact-mode probabilities, all exact)")


def test_criterion_5_bound_chain_consistency():
    started = time.monotonic()
    checked = 0
    failures = 0
    for d in (1, 2, 3):
        for eps in (0.1, 0.25, 0.5):
            for delta in (0.1, 0.25, 0.5):
                m0 = m0_ucp(d, eps, delta, 1).m0
                for m in (m0, 2 * m0):
                    checked += 1
                    if epsilon0(m, delta, sauer_bound(d, 2 * m)) > eps:
                        failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 1.0
    assert line(5, ok, f"{checked} grid points, {failures} failures, "
                       f"{elapsed * 1000:.0f}ms")


def test_criterion_6_sem_exactness_and_reduced_pac_sim():
    rng = random.Random(60_006)
    exact_failures = 0
    cases = 200
    for _ in range(cases):
        space = random_explicit_space(rng)
        learner = sem_learner(space)
        zbar = random_multisample(rng, space.domain, rng.randint(1, 7))
        if sample_error(learner(zbar), zbar) != empirical_opt(space, zbar):
            exact_failures += 1

    # the full bound-scale run is not desk-reproducible: report the bound,
    # then simulate at a reduced sample size
    eps = delta = 0.1
    bound_m = m0_pac(eps, delta, d=1)
    reduced_m, trials = 200, 300
    space = ThresholdSpace()
    dist = DiscreteDistribution.uniform(
        [((i,), 1 if i >= 6 else 0) for i in range(10)])
    report = estimate_pac_probability(sem_learner(space), space, dist,
                                      m=reduced_m, eps=eps, trials=trials,
                                      seed=66)
    well_formed = (report.successes <= report.trials == trials
                   and report.ci_low <= report.estimate <= report.ci_high)
    ok = exact_failures == 0 and well_formed
    assert line(6, ok,
                f"SEM exact on {cases} cases ({exact_failures} failures); "
                f"bound-scale m0_pac(0.1,0.1,d=1)={bound_m} not simulated; "
                f"reduced m={reduced_m}: success estimate "
                f"{report.estimate:.3f} (95% CI [{report.ci_low:.3f}, "
                f"{report.ci_high:.3f}])")


def test_criterion_7_formula_dsl_suite():
    rng = random.Random(70_007)
    ast = relu_graph_formula()
    reparsed = parse_formula(format_formula(ast), ast.objects, ast.params)
    round_trips = reparsed == ast

    relu = compile_formula(ast)
    eval_failures = 0
    for _ in range(1000):
        x = F(rng.randint(-50, 50), rng.randint(1, 9))
        y = (max(F(0), x) if rng.random() < 0.5
             else F(rng.randint(-50, 50), rng.randint(1, 9)))
        if relu((x, y), ()) is not (y == max(F(0), x)):
            eval_failures += 1

    cos = parse_formula("x != p", ["x"], ["p"])
    cos_space = DefinableSpace(cos, SampledParams(budget=64))
    table = cos_space.dichotomies(points(1, 2, 3))
    cos_ok = cos_space.oracle_exact and set(table) == {
        (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

    pool = [
        ("x != p", ("x",), ("p",), 1),
        ("p <= x", ("x",), ("p",), 1),
        ("a <= x and x <= b", ("x",), ("a", "b"), 2),
        ("0 <= w * x + b", ("x",), ("w", "b"), 2),
    ]
    shattered_maps = 0
    unsound = 0
    attempts = 0
    while shattered_maps < 100 and attempts < 400:
        attempts += 1
        text, objects, params, vc = rng.choice(pool)
        f = parse_formula(text, objects, params)
        size = rng.randint(1, vc)
        instances = rng.sample(range(-4, 8), size)
        space = DefinableSpace(f, SampledParams(budget=300,
                                                seed=rng.randint(0, 999)))
        verdict = shatters(space, points(*instances))
        if not verdict.shattered:
            continue
        shattered_maps += 1
        predicate = compile_formula(f)
        for labeling, h in verdict.witnesses.items():
            got = tuple(1 if predicate((F(v),), h.key[1:]) else 0
                        for v in instances)
            if got != labeling:
                unsound += 1
    ok = (round_trips and eval_failures == 0 and cos_ok
          and shattered_maps >= 100 and unsound == 0)
    assert line(7, ok, f"round_trip={round_trips}, eval failures "
                       f"{eval_failures}/1000, co-singleton dichotomies "
                       f"{'ok' if cos_ok else 'WRONG'}, {shattered_maps} "
                       f"witness maps verified ({unsound} unsound)")


def test_criterion_8_symmetrization_zero_mean():
    rng = random.Random(80_008)
    triples = 100
    nonzero = 0
    for _ in range(triples):
        space = random_explicit_space(rng, max_instances=5)
        h = rng.choice(list(space.hypotheses()))
        m = rng.randint(1, 10)
        z1 = random_multisample(rng, space.domain, m)
        z2 = random_multisample(rng, space.domain, m)
        total = sum(signed_deviation(h, z1, z2, sigma)
                    for sigma in product((-1, 1), repeat=m))
        if F(total, 2 ** m) != 0:
            nonzero += 1
    ok = nonzero == 0
    assert line(8, ok, f"{triples} random (h, z, z') triples, exhaustive "
                       f"sign enumeration up to m=10, {nonzero} nonzero means")


def test_criterion_9_erm_lemma_links_ucp_and_pac():
    """The ERM lemma: if every hypothesis' sample error is within eps/2 of
    its true error (the UCP event at eps/2), the sample-error minimizer's
    true error is within eps of the best (its PAC event at eps).  So
    P_pac(sem, eps) >= P_ucp(eps/2) exactly, and trial by trial in Monte
    Carlo, where both estimators draw the same counts-only multi-sample
    from one seed, as sem is order-invariant."""
    rng = random.Random(90_009)
    started = time.monotonic()
    corners = [Instance.point(x, y) for x, y in product((0, 1), repeat=2)]
    cases = [(HalfspaceSpace(2), DiscreteDistribution(
        [(Sample(x, y), w) for x, y, w in zip(
            corners, (1, 0, 0, 1), (F(1, 4), F(1, 5), F(1, 3), F(13, 60)))]))]
    for _ in range(40):
        space = random_explicit_space(rng)
        cases.append((space, random_distribution(rng, space.domain)))
    for space in [ThresholdSpace()] * 10 + [IntervalSpace()] * 10:
        instances = points(*rng.sample(range(-3, 4), rng.randint(1, 4)))
        cases.append((space, random_distribution(rng, instances)))
    exact = trials = violations = 0
    for space, dist in cases:
        sem = sem_learner(space)
        for m, eps in product(range(1, 4), map(F, range(1, 10), repeat(10))):
            pac = estimate_pac_probability(sem, space, dist, m, eps,
                                           exact=True).probability
            ucp = estimate_ucp_probability(space, dist, m, eps / 2,
                                           exact=True).probability
            exact += 1
            violations += pac < ucp
        for seed in range(6):
            eps = F(rng.randint(1, 9), 10)
            pac = estimate_pac_probability(sem, space, dist, 6, eps,
                                           trials=1, seed=seed)
            ucp = estimate_ucp_probability(space, dist, 6, eps / 2,
                                           trials=1, seed=seed)
            trials += 1
            violations += pac.successes < ucp.successes
    elapsed = time.monotonic() - started
    assert line(9, violations == 0,
                f"ERM lemma over {len(cases)} spaces: {exact} exact cases at "
                f"m = 1..3 and {trials} single trials at m = 6, "
                f"{violations} with UCP(eps/2) above PAC(sem, eps), "
                f"{elapsed * 1000:.0f}ms")
