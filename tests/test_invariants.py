import random
from fractions import Fraction

import pytest

from symtensor.errors import IntegrityError
from symtensor.exactnum import CyclotomicNumber, zeta
from symtensor.invariants import (Mat2, build_group, build_group_from_generators,
                                  invariant_dimension, molien_series,
                                  sym_power_trace)

GROUPS = [("BD", 2, 8), ("BD", 3, 12), ("2T", None, 24), ("2O", None, 48),
          ("2I", None, 120)]


@pytest.mark.parametrize("label,n,expected", GROUPS)
def test_group_orders_and_unimodularity(label, n, expected):
    group = build_group(label, n)
    assert group.order == expected
    one = CyclotomicNumber.one(group.field_order)
    ident = Mat2.identity(group.field_order)
    keys = {m.key() for m in group.elements}
    assert ident.key() in keys
    assert ident.neg().key() in keys              # contains -identity
    for m in group.elements:
        assert m.det() == one


@pytest.mark.parametrize("label,n,expected", [("BD", 2, 8), ("BD", 3, 12),
                                              ("2T", None, 24), ("2O", None, 48)])
def test_full_closure_table_and_inverses(label, n, expected):
    group = build_group(label, n)
    keys = {m.key() for m in group.elements}
    for a in group.elements:
        # adjugate of a determinant-1 matrix is its inverse
        inverse = Mat2(a.d, -a.b, -a.c, a.a)
        assert inverse.key() in keys
        for b in group.elements:
            assert (a * b).key() in keys


def test_icosahedral_closure_sampled():
    group = build_group("2I")
    keys = {m.key() for m in group.elements}
    rng = random.Random(5)
    elements = group.elements
    for _ in range(300):
        a = elements[rng.randrange(len(elements))]
        b = elements[rng.randrange(len(elements))]
        assert (a * b).key() in keys
    for a in elements:
        assert Mat2(a.d, -a.b, -a.c, a.a).key() in keys


def test_minus_one_squares_to_identity():
    group = build_group("BD", 2)
    minus = Mat2.identity(group.field_order).neg()
    assert (minus * minus).key() == Mat2.identity(group.field_order).key()


def test_invalid_labels():
    with pytest.raises(ValueError):
        build_group("BD", 1)
    with pytest.raises(ValueError):
        build_group("BD")
    with pytest.raises(ValueError):
        build_group("nope")


def test_wrong_generators_detected():
    # a non-unit-determinant generator cannot close to a finite unimodular group
    two = CyclotomicNumber.from_rational(4, 2)
    zero = CyclotomicNumber.zero(4)
    one = CyclotomicNumber.one(4)
    with pytest.raises(IntegrityError):
        build_group_from_generators((Mat2(two, zero, zero, one),), 4, 8)


@pytest.mark.parametrize("label,n,_", GROUPS)
def test_dimension_basics(label, n, _):
    group = build_group(label, n)
    assert invariant_dimension(group, 0) == 1
    for p in range(1, 21, 2):
        assert invariant_dimension(group, p) == 0     # -identity kills odd degrees
    for p in range(0, 21):
        assert invariant_dimension(group, p) <= p + 1


def test_bd2_degree_four_by_explicit_average():
    group = build_group("BD", 2)
    total = CyclotomicNumber.zero(group.field_order)
    for m in group.elements:
        total = total + sym_power_trace(m, 4)
    average = (total * Fraction(1, group.order)).to_rational()
    assert average == 2
    assert invariant_dimension(group, 4) == 2


@pytest.mark.parametrize("label,n,_", GROUPS)
def test_recurrence_agrees_with_explicit_action(label, n, _):
    group = build_group(label, n)
    rng = random.Random(11)
    elements = group.elements
    if len(elements) > 30:
        elements = [elements[rng.randrange(len(elements))] for _ in range(20)]
    for p in range(0, 7):
        for m in elements:
            # recompute the recurrence for a single matrix
            t_prev = CyclotomicNumber.zero(group.field_order)
            t_cur = CyclotomicNumber.one(group.field_order)
            tr = m.trace()
            for _ in range(p):
                t_prev, t_cur = t_cur, tr * t_cur - t_prev
            assert t_cur == sym_power_trace(m, p)


def test_basis_independence_under_conjugation():
    base = build_group("BD", 2)
    conj = (zeta(8) + zeta(8, 7)) * Fraction(1, 2)   # 1/sqrt(2)
    h = Mat2(conj, conj, -conj, conj)
    h_inv = Mat2(h.d, -h.b, -h.c, h.a)
    gens = [h * g.embed(8) * h_inv for g in base.generators]
    conjugated = build_group_from_generators(gens, 8, 8, label="BD2-conjugated")
    for p in range(0, 9):
        assert invariant_dimension(conjugated, p) == invariant_dimension(base, p)


@pytest.mark.parametrize("n", [2, 3])
def test_molien_recovery_binary_dihedral(n):
    result = molien_series(build_group("BD", n))
    assert result.matched == (4, 2 * n, 2 * n + 2, 4 * n + 4)
    assert result.series is not None
    window = len(result.dims) - 1
    assert result.series.expand(window) == result.dims


def test_molien_recovery_icosahedral():
    result = molien_series(build_group("2I"))
    assert result.matched == (12, 20, 30, 60)
    assert result.series.expand(124) == result.dims


@pytest.mark.parametrize("label", ["2T", "2O"])
def test_molien_recovery_exists_for_tetra_octa(label):
    result = molien_series(build_group(label))
    assert result.matched is not None
    d1, d2, d3, e = result.matched
    assert d1 <= d2 <= d3 and all(x % 2 == 0 for x in (d1, d2, d3, e))
    assert result.series.expand(len(result.dims) - 1) == result.dims


def test_recovered_form_extends_beyond_search_window():
    group = build_group("BD", 2)
    result = molien_series(group, 40)
    extended = tuple(invariant_dimension(group, p) for p in range(61))
    assert result.series.expand(60) == extended


def test_molien_dims_window_override():
    group = build_group("BD", 3)
    result = molien_series(group, 20)
    assert len(result.dims) == 21


def test_unclosed_element_set_raises_integrity_error():
    # bypass the closure builder: a one-element "group" without the identity
    # has an irrational trace average, which the sweep must refuse
    from symtensor.invariants import MatrixGroup
    z8 = zeta(8)
    zero = CyclotomicNumber.zero(8)
    bogus = MatrixGroup("custom", None, 8, (), (Mat2(z8, zero, zero, zero),))
    with pytest.raises(IntegrityError):
        invariant_dimension(bogus, 1)


def test_failed_sweep_leaves_cached_state_unchanged():
    # trace sqrt(2): T_1 is irrational but T_2 = 1, so a sweep that advanced its
    # recursion before raising would answer 1 for degree 1 on a second call
    from symtensor.invariants import MatrixGroup
    z8 = zeta(8)
    zero = CyclotomicNumber.zero(8)
    rot = Mat2(z8, zero, zero, -zeta(8, 3))
    bogus = MatrixGroup("custom", None, 8, (), (rot,))
    messages = []
    for _ in range(2):
        with pytest.raises(IntegrityError, match="irrational invariant average") as info:
            invariant_dimension(bogus, 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "at degree 1 " in messages[0]
