"""Integer models, reduction mod p, truncation, and the corpus."""

from fractions import Fraction

import pytest

from fthresholds.errors import DegenerateReductionError, DomainError
from fthresholds.frobenius import fpt_enclosure
from fthresholds.groebner import Ideal, MonomialIdeal
from fthresholds.newton import lct_monomial
from fthresholds.parsing import parse_gfpoly
from fthresholds.reduction import (
    CorpusEntry,
    IntegerIdeal,
    corpus,
    degree_monomials,
    reduce_mod_p,
    truncate_ideal,
)


def test_reduce_examples():
    I = IntegerIdeal.from_strings(["x^2 + y^3"], 2)
    red = reduce_mod_p(I, 7)
    assert [str(g) for g in red.gens] == ["y^3 + x^2"]

    J = IntegerIdeal.from_strings(["2*x + y"], 2)
    red2 = reduce_mod_p(J, 2)
    assert [str(g) for g in red2.gens] == ["y"]

    with pytest.raises(DegenerateReductionError):
        reduce_mod_p(IntegerIdeal.from_strings(["2*x"], 1), 2)


def test_degree_monomials():
    assert degree_monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(degree_monomials(3, 4)) == 15
    assert degree_monomials(1, 3) == [(3,)]


def test_truncate_examples():
    a = Ideal.from_strings(["x^2 + y^3"], 2, 5)
    t = truncate_ideal(a, 2)
    # generators are a's plus the full degree-2 antichain, unminimized
    texts = [str(g) for g in t.gens]
    assert texts[0] == "y^3 + x^2"
    assert set(texts[1:]) == {"x^2", "x*y", "y^2"}
    assert t.equals(Ideal.from_strings(["x^2", "x*y", "y^2", "y^3"], 2, 5))

    zero = Ideal([], n=3, p=5)
    m = truncate_ideal(zero, 1)
    assert m.equals(Ideal.from_strings(["x", "y", "z"], 3, 5))

    a5 = truncate_ideal(a, 1)
    assert a5.contains(parse_gfpoly("x", 2, 5))
    assert a5.contains(parse_gfpoly("y", 2, 5))


def test_corpus_contents():
    entries = {e.name: e for e in corpus()}
    assert entries["coordinate-axes"].lct0 == 2
    assert entries["monomial-2-3"].lct0 == Fraction(5, 6)
    assert entries["cusp"].lct0 == Fraction(5, 6)
    assert entries["cusp"].provenance == "literature"
    for a in (2, 3, 4):
        name = {2: "double-point", 3: "triple-point", 4: "quadruple-point"}[a]
        assert entries[name].lct0 == Fraction(1, a)
    assert entries["diagonal-node"].lct0 == 1
    for e in entries.values():
        assert e.provenance in ("monomial-LP", "literature")
        assert e.ideal.vanishes_at_origin()


def test_corpus_returns_a_fresh_list():
    entries = corpus()
    n = len(entries)
    entries.clear()
    assert len(corpus()) == n > 0


def test_corpus_monomial_lp_cross_check():
    """Entries tagged monomial-LP are recomputed exactly from the LP."""
    for entry in corpus():
        if entry.provenance != "monomial-LP":
            continue
        points = []
        for g in entry.ideal.gens:
            assert len(g) == 1  # monomial generators
            points.extend(g.keys())
        assert lct_monomial(MonomialIdeal(points, entry.ideal.n)) == entry.lct0


def test_corpus_literature_term_ideal_cross_check():
    """Literature entries with nondegenerate Newton boundary match the LP of
    their term ideal (a consistency check, marked non-blocking in acceptance)."""
    for entry in corpus():
        if entry.provenance != "literature":
            continue
        points = []
        for g in entry.ideal.gens:
            points.extend(g.keys())
        assert lct_monomial(MonomialIdeal(points, entry.ideal.n)) == entry.lct0


def test_corpus_enclosures_stay_below_lct():
    for entry in corpus():
        for p in (2, 3, 5, 7, 11, 13):
            try:
                red = reduce_mod_p(entry.ideal, p)
            except DegenerateReductionError:
                continue
            enc = fpt_enclosure(red, 2)
            assert enc.low <= entry.lct0
