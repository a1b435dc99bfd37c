"""Acceptance suite: one test per criterion, exact tolerances, zero slack.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.  Random instances are generated from a fixed seed so the suite is
reproducible everywhere.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from fthresholds.cli import dispatch
from fthresholds.exact import prime_power
from fthresholds.frobenius import (
    bracket_power,
    fpt_enclosure,
    frobenius_root,
    frobenius_root_principal_power,
    nu,
    test_ideal as tau_chain,
)
from fthresholds.gfpoly import GFPoly
from fthresholds.groebner import Ideal, MonomialIdeal
from fthresholds.lp import OPTIMAL
from fthresholds.newton import NewtonPolytope, lct_monomial, newton_order, order_lp
from fthresholds.reduction import IntegerIdeal, reduce_mod_p, truncate_ideal
from fthresholds.experiment import convergence_report, sweep

from conftest import cusp_nu_oracle, rand_gfpoly


def _report(k: int, name: str, t0: float, budget_s: float):
    elapsed = time.perf_counter() - t0
    assert elapsed <= budget_s, f"criterion {k} exceeded its {budget_s}s budget"
    print(f"ACCEPTANCE {k} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_frobenius_root_adjunction():
    """b <= c^[q] iff b^[1/q] <= c on 300 randomized instances; zero failures."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for trial in range(300):
        p = rng.choice([2, 3, 5])
        e = rng.choice([1, 2])
        n = rng.choice([1, 2])
        q = prime_power(p, e)
        c = Ideal([rand_gfpoly(rng, n, p, 4, 3) for _ in range(rng.randint(1, 2))], n=n, p=p)
        if rng.random() < 0.5 and not c.is_zero:
            # exercise the containment branch: b built inside c^[q]
            cq = bracket_power(c, q)
            mix = []
            for _ in range(rng.randint(1, 2)):
                acc = GFPoly.zero(n, p)
                for g in cq.gens:
                    acc = acc + g * rand_gfpoly(rng, n, p, 2, 2)
                mix.append(acc)
            b = Ideal([m for m in mix if not m.is_zero], n=n, p=p)
        else:
            b = Ideal([rand_gfpoly(rng, n, p, 4, 3) for _ in range(rng.randint(1, 2))],
                      n=n, p=p)
        lhs = bracket_power(c, q).contains_ideal(b)
        rhs = c.contains_ideal(frobenius_root(b, q))
        if lhs != rhs:
            failures += 1
    assert failures == 0
    _report(1, "frobenius-root adjunction", t0, 60)


def test_criterion_2_maximal_ideal_exactness():
    """nu = n(p^e - 1) exactly and the enclosure contains n; zero tolerance."""
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7, 11):
        e = 1
        while p**e <= 10**4:
            q = p**e
            for n in (1, 2, 3):
                gens = [GFPoly.variable(i, n, p) for i in range(n)]
                I = Ideal(gens, n=n, p=p)
                value = nu(I, e).nu
                assert value == n * (q - 1), (p, e, n, value)
                enc = fpt_enclosure(I, e)
                assert enc.low <= n <= enc.high, (p, e, n, enc)
            e += 1
    _report(2, "maximal-ideal exactness", t0, 10)


def test_criterion_3_cusp_convergence():
    """Sweep x^2 + y^3 over 5 <= p <= 47 with q_max = 10^5 against lct 5/6.

    (a) low <= 5/6 for every record: hard, exact.
    (b) 5/6 - low <= 2/p + 1/q: asserted for p in {5, 7} (confirmed against the
        exact binomial oracle below), reported non-blocking for larger primes.
    """
    t0 = time.perf_counter()
    target = Fraction(5, 6)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    # oracle confirmation at p = 5, 7 before trusting the fast path at scale
    for p in (5, 7):
        assert nu(Ideal.from_strings(["x^2+y^3"], 2, p), 2).nu == cusp_nu_oracle(p, 2)
    records = sweep(IntegerIdeal.from_strings(["x^2 + y^3"], 2), primes, 10**5)
    assert [r.p for r in records] == primes
    rate_misses = []
    for r in records:
        assert r.low <= target, f"(a) violated at p={r.p}: {r.low}"
        bound = Fraction(2, r.p) + Fraction(1, r.p**r.e)
        if target - r.low > bound:
            if r.p in (5, 7):
                raise AssertionError(f"(b) violated at confirmed prime {r.p}")
            rate_misses.append(r.p)
    report = convergence_report(records, target)
    assert report.below_lct_ok and report.monotone_ok
    if rate_misses:
        print(f"criterion 3 note: empirical rate missed at primes {rate_misses} (non-blocking)")
    _report(3, "cusp convergence", t0, 300)


def test_criterion_4_truncation_bound():
    """Enclosures of a and a + m^d stay within n/d plus the two widths; exact."""
    t0 = time.perf_counter()
    n = 2
    for p in (7, 13):
        e = 1
        while p ** (e + 1) <= 10**4:
            e += 1
        base_ideal = Ideal.from_strings(["x^2 + y^3"], n, p)
        base = fpt_enclosure(base_ideal, e)
        for d in range(3, 9):
            trunc = fpt_enclosure(truncate_ideal(base_ideal, d), e)
            allowance = Fraction(n, d) + base.width + trunc.width
            assert abs(base.low - trunc.low) <= allowance, (p, d)
            assert abs(base.high - trunc.high) <= allowance, (p, d)
            gap = max(trunc.low - base.high, base.low - trunc.high)
            assert gap <= Fraction(n, d), (p, d, gap)
    _report(4, "truncation bound", t0, 120)


def test_criterion_5_test_ideal_spot_values():
    """Over F_7, a = (x^2, y^3): tau(a^(1/2)) = R; tau(a^(5/6)) = (x, y) by e=3."""
    t0 = time.perf_counter()
    a = Ideal.from_strings(["x^2", "y^3"], 2, 7)
    half = tau_chain(a, Fraction(1, 2), 3)
    assert half.ideal.is_unit()
    five_sixths = tau_chain(a, Fraction(5, 6), 3)
    assert five_sixths.ideal.equals(Ideal.from_strings(["x", "y"], 2, 7))
    assert five_sixths.stabilized and five_sixths.e_used <= 3
    _report(5, "test-ideal spot values", t0, 30)


def test_criterion_6_tau_chain_properties():
    """100 random principal ideals: tau(a^mu) <= tau(a^lam) for lam < mu on the
    k/12 grid, with the ascending chain verified at every step."""
    t0 = time.perf_counter()
    rng = random.Random(606)
    done = 0
    while done < 100:
        p = rng.choice([3, 5, 7])
        f = rand_gfpoly(rng, 2, p, max_deg=4, max_terms=4, vanish=True)
        if f.is_zero:
            continue
        a = Ideal([f], n=2, p=p)
        k = rng.randint(1, 11)
        lam = Fraction(k, 12)
        mu = Fraction(k + rng.randint(1, 12 - k), 12)
        # test_ideal raises InvariantViolation if any step breaks the chain
        t_lam = tau_chain(a, lam, 3)
        t_mu = tau_chain(a, mu, 3)
        assert t_lam.ideal.contains_ideal(t_mu.ideal), (str(f), p, lam, mu)
        done += 1
    _report(6, "tau chain properties", t0, 180)


def test_criterion_7_lp_exactness():
    """Fixed lct values plus 100 random monomial ideals with exact witnesses
    and LP homogeneity; zero failures."""
    t0 = time.perf_counter()
    assert lct_monomial(MonomialIdeal([(1, 0), (0, 1)], 2)) == 2
    assert lct_monomial(MonomialIdeal([(2, 0), (0, 3)], 2)) == Fraction(5, 6)
    for a in (2, 3, 4):
        assert lct_monomial(MonomialIdeal([(a,)], 1)) == Fraction(1, a)
    rng = random.Random(707)
    done = 0
    while done < 100:
        n = rng.choice([1, 2, 3])
        pts = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        pts = [m for m in pts if sum(m) > 0]
        if not pts:
            continue
        P = NewtonPolytope.from_points(pts, n)
        v = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        res = order_lp(P, v)
        assert res.status == OPTIMAL
        for i in range(n):
            assert sum(z * pt[i] for z, pt in zip(res.witness, P.points)) <= v[i]
        assert sum(res.witness) == res.optimum
        for c in (Fraction(1, 2), Fraction(2), Fraction(3)):
            assert newton_order(P, [c * x for x in v]) == c * res.optimum
        done += 1
    _report(7, "LP exactness", t0, 60)


def test_criterion_8_principal_power_root_oracle():
    """Digit recursion agrees with expand-then-root for N <= 12, e <= 2."""
    t0 = time.perf_counter()
    rng = random.Random(808)
    done = 0
    while done < 25:
        p = rng.choice([2, 3])
        f = rand_gfpoly(rng, 2, p, max_deg=3, max_terms=3)
        if f.is_zero:
            continue
        for e in (1, 2):
            q = prime_power(p, e)
            for N in range(13):
                fast = frobenius_root_principal_power(f, N, q)
                slow = frobenius_root(Ideal([f.pow(N)], n=2, p=p), q)
                assert fast.equals(slow), (str(f), p, e, N)
        done += 1
    _report(8, "principal-power root oracle", t0, 60)


def test_criterion_9_determinism(tmp_path: Path):
    """Three criterion-3 sweeps through the CLI emit byte-identical reports."""
    t0 = time.perf_counter()
    outputs = []
    for run_idx in range(3):
        out = tmp_path / f"report_{run_idx}.json"
        code = dispatch([
            "sweep", "--gens", "x^2+y^3", "-n", "2", "--primes", "5..47",
            "--qmax", "100000", "--target", "5/6", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(9, "determinism", t0, 600)
