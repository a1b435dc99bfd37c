"""Seeded inputs and operations for the four benchmark workloads.

Each workload turns a seed into a fixed list of operations ("ops").  The shapes
of the inputs (term supports, base coefficients, prime groups, degrees,
exponents) are fixed per workload.  The seed rescales variables and generators
by units, or permutes the variables of diagonal monomial ideals, which gives
an isomorphic input of the same cost: so two seeds cost the same work, and a
second seed checks the same claim on different bytes.  Inputs are written as
polynomial text and parsed by the program's own parsers, which is part of
set-up.

An op calls the program's public functions through their module attributes
(``experiment.sweep``, ``newton.lct_monomial``, ...), so that the span wrappers
of ``spans.py`` see the calls.  It returns a canonical value that compares
equal across passes; ``oracles.py`` checks it against an independent
reference.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from fthresholds import experiment, frobenius, groebner, newton, parsing, reduction
from fthresholds.exact import prime_power

# sweep: q_max fixed; each op sweeps one curve over one prime group.  The
# first group is small-p/deep-e (5^5, 7^4), the last large-p/shallow-e.
SWEEP_Q_MAX = 10_000
SWEEP_PRIME_GROUPS = ((5, 7), (11, 13), (23,))
BINOMIAL_EXPONENTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7),
                      (5, 6), (5, 7), (2, 9), (3, 8), (4, 9), (5, 8), (6, 7), (2, 11),
                      (3, 10), (4, 11))
TRINOMIAL_SUPPORTS = (
    ((3, 0), (0, 3), (1, 1)),
    ((3, 0), (0, 4), (2, 1)),
    ((2, 0), (0, 4), (1, 2)),
    ((2, 0), (0, 5), (1, 2)),
    ((3, 0), (0, 5), (1, 2)),
    ((4, 0), (0, 3), (1, 1)),
    ((2, 0), (0, 3), (1, 2)),
    ((3, 0), (0, 4), (1, 2)),
    ((4, 0), (0, 5), (2, 2)),
    ((2, 0), (0, 6), (1, 3)),
)
QUADRINOMIAL_SUPPORTS = (
    ((4, 0), (0, 3), (1, 2), (2, 1)),
    ((3, 0), (0, 4), (1, 2), (2, 1)),
    ((2, 0), (0, 5), (1, 2), (1, 3)),
    ((3, 0), (0, 3), (2, 1), (1, 2)),
    ((4, 0), (0, 4), (2, 1), (1, 2)),
    ((2, 0), (0, 4), (1, 2), (1, 3)),
)
COEFFS = (1, 2, 4, -1, -2, -4)  # units modulo every odd prime

# truncation: (p, e, d) for a + m^d, and (p, e) for two-generator ideals.
TRUNC_CURVES = 8
TRUNC_SETTINGS = ((5, 2, 3), (5, 2, 5), (7, 2, 4), (7, 2, 7), (3, 3, 4),
                  (5, 3, 3), (5, 3, 6), (11, 2, 4), (11, 2, 8), (3, 4, 5))
TWO_GEN_SETTINGS = ((5, 2), (7, 2), (3, 3))
TWO_GEN_IDEALS = 8

# ideal-gb
GB_DEGREES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
GB_PRIMES = (7, 11, 32003)
GB_PER_CELL = 4
FROOT_SETTINGS = ((2, 1), (3, 1), (2, 2))  # (p, e)
FROOT_PER_SETTING = 8
CHAIN_PRIMES = (3, 5, 7)
CHAIN_LAMBDAS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
CHAIN_DEPTH = 3
CHAIN_IDEALS = 32

# monomial
MONOMIAL_P, MONOMIAL_E = 7, 2  # q = 49
MONOMIAL_LAMBDAS = (Fraction(1, 2), Fraction(1))
JUMP_BOUND = Fraction(1)
MONOMIAL_IDEALS_PER_CLASS = 5


@dataclass
class Op:
    """One item of a workload's input list."""

    kind: str
    label: str
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


def poly_text(terms, names="xyz") -> str:
    """Polynomial text in the program's grammar from (exponents, coeff) pairs."""
    out = []
    for mono, c in terms:
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, mono) if e)
        mag = abs(c)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(f"-{text}" if c < 0 else text)
        else:
            out.append(f"{'-' if c < 0 else '+'} {text}")
    return " ".join(out)


def _rescaled(rng: random.Random, terms, units) -> list:
    """`terms` under x_i -> u_i*x_i and f -> w*f for seeded units u_i, w.

    The result is isomorphic to the input, with the same supports all the way
    through the computation, so every seed costs about the same work."""
    u = [rng.choice(units) for _ in terms[0][0]]
    w = rng.choice(units)
    return [(m, w * c * math.prod(ui ** e for ui, e in zip(u, m))) for m, c in terms]


def _curve_terms(rng: random.Random, support) -> list:
    """A plane curve on a fixed support with fixed base coefficients, rescaled
    by the seed."""
    pick = random.Random(repr(support))
    base = [(m, 1 if i == 0 else pick.choice(COEFFS)) for i, m in enumerate(support)]
    return _rescaled(rng, base, COEFFS)


def _binomial_support(i: int):
    a, b = BINOMIAL_EXPONENTS[i % len(BINOMIAL_EXPONENTS)]
    return ((a, 0), (0, b))


def _seeded_curves(rng: random.Random, binomials: int, trinomials: int,
                   quadrinomials: int) -> list[str]:
    curves = [_curve_terms(rng, _binomial_support(i)) for i in range(binomials)]
    curves += [_curve_terms(rng, TRINOMIAL_SUPPORTS[i % len(TRINOMIAL_SUPPORTS)])
               for i in range(trinomials)]
    curves += [_curve_terms(rng, QUADRINOMIAL_SUPPORTS[i % len(QUADRINOMIAL_SUPPORTS)])
               for i in range(quadrinomials)]
    return [poly_text(t) for t in curves]


# -- sweep -------------------------------------------------------------------

def build_sweep(rng: random.Random) -> list[Op]:
    models = []
    for entry in reduction.corpus():
        gens = entry.ideal.gens
        if len(gens) == 1 and entry.ideal.n == 2 and len(gens[0]) > 1:
            models.append((entry.name, entry.ideal, entry.lct0))
    for i, text in enumerate(_seeded_curves(rng, len(BINOMIAL_EXPONENTS), 10, 4)):
        models.append((f"curve{i}", reduction.IntegerIdeal.from_strings([text], 2), None))
    ops = []
    for name, model, target in models:
        for primes in SWEEP_PRIME_GROUPS:
            def run(model=model, primes=list(primes), target=target):
                records = experiment.sweep(model, primes, SWEEP_Q_MAX)
                report = experiment.convergence_report(records, target)
                return experiment.report_to_json(report)
            ops.append(Op("sweep", f"{name}@{primes}", run,
                          {"model": model, "primes": primes, "target": target,
                           "q_max": SWEEP_Q_MAX}))
    return ops


# -- truncation --------------------------------------------------------------

def build_truncation(rng: random.Random) -> list[Op]:
    ops = []
    texts = _seeded_curves(rng, TRUNC_CURVES // 2, TRUNC_CURVES // 2, 0)
    for i, text in enumerate(texts):
        model = reduction.IntegerIdeal.from_strings([text], 2)
        for p, e, d in TRUNC_SETTINGS:
            def run(model=model, p=p, e=e, d=d):
                a = reduction.truncate_ideal(reduction.reduce_mod_p(model, p), d)
                enc = frobenius.fpt_enclosure(a, e)
                return (enc.nu, enc.low, enc.high, enc.ngens)
            ops.append(Op("mixed", f"curve{i}+m^{d}@{p}^{e}", run,
                          {"model": model, "p": p, "e": e, "d": d}))
    for i in range(TWO_GEN_IDEALS):
        f_terms = _curve_terms(rng, _binomial_support(i) if i % 2 == 0
                               else TRINOMIAL_SUPPORTS[i % len(TRINOMIAL_SUPPORTS)])
        mono = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
        texts = [poly_text(f_terms), poly_text([(mono, 1)])]
        for p, e in TWO_GEN_SETTINGS:
            gens = parsing.parse_ideal(texts, 2, p).gens
            def run(gens=gens, p=p, e=e):
                enc = frobenius.fpt_enclosure(groebner.Ideal(gens, n=2, p=p), e)
                return (enc.nu, enc.low, enc.high, enc.ngens)
            ops.append(Op("two-gen", f"pair{i}@{p}^{e}", run,
                          {"gens": gens, "p": p, "e": e}))
    return ops


# -- ideal-gb ----------------------------------------------------------------

def _basis_terms(basis) -> tuple:
    return tuple(tuple(sorted(g.terms.items())) for g in basis)


def _dense_support(shape_rng: random.Random, n: int, lo: int, hi: int, count: int,
                   accept=lambda m: True) -> list:
    monos = [m for m in itertools.product(range(hi + 1), repeat=n)
             if lo <= sum(m) <= hi and accept(m)]
    return shape_rng.sample(monos, min(count, len(monos)))


def _with_coeffs(shape_rng: random.Random, rng: random.Random, support, p: int) -> list:
    units = range(1, min(p, 50))
    return _rescaled(rng, [(m, shape_rng.choice(units)) for m in support], units)


def build_ideal_gb(rng: random.Random) -> list[Op]:
    # Supports and base coefficients are the same for every seed; the seed
    # rescales the variables and generators.
    shape_rng = random.Random("ideal-gb:shapes")
    ops = []
    for degs in GB_DEGREES:
        for p in GB_PRIMES:
            for k in range(GB_PER_CELL):
                nterms = 3 + k % 2
                texts = [poly_text(_with_coeffs(shape_rng, rng, _dense_support(shape_rng, 3, 2, d, nterms), p))
                         for d in degs]
                gens = parsing.parse_ideal(texts, 3, p).gens
                def run(gens=gens, p=p):
                    return _basis_terms(groebner.Ideal(gens, n=3, p=p).groebner_basis())
                ops.append(Op("gb", f"gb{degs}@{p}#{k}", run, {"gens": gens, "p": p}))
    for p, e in FROOT_SETTINGS:
        q = p ** e
        for k in range(FROOT_PER_SETTING):
            # Every term has some exponent >= q, so the root lies inside m.
            support = _dense_support(shape_rng, 3, q + 1, 2 * q + 1, 10,
                                     accept=lambda m, q=q: max(m) >= q)
            gens = parsing.parse_ideal([poly_text(_with_coeffs(shape_rng, rng, support, p))], 3, p).gens
            def run(gens=gens, p=p, e=e):
                root = frobenius.frobenius_root(groebner.Ideal(gens, n=3, p=p),
                                                prime_power(p, e))
                return _basis_terms(root.groebner_basis())
            ops.append(Op("froot", f"froot@{p}^{e}#{k}", run,
                          {"gens": gens, "p": p, "e": e}))
    for k in range(CHAIN_IDEALS):
        support = (_binomial_support(k) if k % 2 == 0
                   else TRINOMIAL_SUPPORTS[k % len(TRINOMIAL_SUPPORTS)])
        p = CHAIN_PRIMES[k % len(CHAIN_PRIMES)]
        lam = CHAIN_LAMBDAS[(k // len(CHAIN_PRIMES)) % len(CHAIN_LAMBDAS)]
        f = parsing.parse_ideal([poly_text(_curve_terms(rng, support))], 2, p).gens[0]
        def run(f=f, p=p, lam=lam):
            out = []
            prev = None
            for e in range(1, CHAIN_DEPTH + 1):
                q = prime_power(p, e)
                term = frobenius.frobenius_root_principal_power(f, math.ceil(lam * q.q), q)
                if prev is None:
                    flags = (None, None)
                else:
                    flags = (term.contains_ideal(prev), term.equals(prev))
                out.append((_basis_terms(term.groebner_basis()), flags))
                prev = term
            return tuple(out)
        ops.append(Op("chain", f"chain{k}@{p}:{lam}", run, {"f": f, "p": p, "lam": lam}))
    return ops


# -- monomial ----------------------------------------------------------------

def _monomial_points(shape_rng: random.Random, rng: random.Random, n: int,
                     diagonal: bool) -> list:
    """Pure powers of every variable, plus n - 1 mixed monomials below them for
    a non-diagonal ideal.  The exponents are fixed.  The seed permutes the
    variables of a diagonal ideal, which leaves its cost alone; for a
    non-diagonal ideal a permutation changes the simplex pivots and the
    branch-and-bound order, so those stay fixed."""
    hi = 7 if n == 2 else 4
    exps = [shape_rng.randint(2, hi) for _ in range(n)]
    points = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    if not diagonal:
        for _ in range(n - 1):
            points.append(tuple(shape_rng.randint(1, max(1, a - 1)) for a in exps))
        return points
    order = list(range(n))
    rng.shuffle(order)
    return [tuple(pt[i] for i in order) for pt in points]


def build_monomial(rng: random.Random) -> list[Op]:
    shape_rng = random.Random("monomial:shapes")
    ops = []
    for n in (2, 3):
        for diagonal in (True, False):
            for k in range(MONOMIAL_IDEALS_PER_CLASS):
                points = _monomial_points(shape_rng, rng, n, diagonal)
                texts = [poly_text([(m, 1)]) for m in points]
                ideal = parsing.parse_ideal(texts, n, MONOMIAL_P)
                pts = [g.lead_monomial() for g in ideal.gens]
                name = f"{'diag' if diagonal else 'mixed'}{n}#{k}"
                info = {"points": pts, "n": n, "diagonal": diagonal}

                def mono(pts=pts, n=n):
                    return groebner.MonomialIdeal(pts, n)

                ops.append(Op("lct", f"lct:{name}", lambda mono=mono: newton.lct_monomial(mono()),
                              info))
                for lam in MONOMIAL_LAMBDAS:
                    ops.append(Op("mult", f"mult{lam}:{name}",
                                  lambda mono=mono, lam=lam:
                                  newton.multiplier_ideal_monomial(mono(), lam).gens,
                                  dict(info, lam=lam)))
                ops.append(Op("jumps", f"jumps:{name}",
                              lambda mono=mono: tuple(newton.jumping_candidates(mono(), JUMP_BOUND)),
                              dict(info, bound=JUMP_BOUND)))
                gens = ideal.gens

                def run_nu(gens=gens, n=n):
                    a = groebner.Ideal(gens, n=n, p=MONOMIAL_P)
                    return frobenius.nu(a, MONOMIAL_E).nu
                ops.append(Op("nu", f"nu:{name}", run_nu,
                              dict(info, q=MONOMIAL_P ** MONOMIAL_E)))
    return ops


# Input sizes per op kind, printed with the results.
SIZES = {
    "sweep": f"one curve over one prime group of {SWEEP_PRIME_GROUPS}, q_max {SWEEP_Q_MAX}",
    "mixed": f"a + m^d for (p, e, d) in {TRUNC_SETTINGS}",
    "two-gen": f"(f, x^v) for (p, e) in {TWO_GEN_SETTINGS}",
    "gb": f"3 polynomials in 3 variables, degrees {GB_DEGREES}, p in {GB_PRIMES}",
    "froot": f"root of one 10-term polynomial in 3 variables, (p, e) in {FROOT_SETTINGS}",
    "chain": f"tau chain terms e = 1..{CHAIN_DEPTH}, p in {CHAIN_PRIMES}",
    "lct": "2-3 variables",
    "mult": f"lambda in {tuple(str(x) for x in MONOMIAL_LAMBDAS)}",
    "jumps": f"bound {JUMP_BOUND}",
    "nu": f"q = {MONOMIAL_P}^{MONOMIAL_E}",
}


def describe(ops: list[Op]) -> str:
    kinds: dict = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return "; ".join(f"{count} {kind}: {SIZES[kind]}" for kind, count in kinds.items())


BUILDERS = {
    "sweep": build_sweep,
    "truncation": build_truncation,
    "ideal-gb": build_ideal_gb,
    "monomial": build_monomial,
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of `workload` for `seed`; the same seed gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
