import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import listpoly
from symtensor.errors import IntegrityError
from symtensor.exactnum import CyclotomicNumber, euler_phi, zeta
from symtensor.hilbert import HilbertSeries, series_from_generator_degrees
from symtensor.invariants import (Mat2, MatrixGroup, _bd_generators,
                                  _binary_icosahedral_generators,
                                  _binary_octahedral_generators,
                                  _binary_tetrahedral_generators, _closed_unimodular,
                                  _hypersurface_form, build_group,
                                  invariant_dimension, molien_series)
from symtensor.poly import VariableContext

GROUPS = [("BD", 2, 8), ("BD", 3, 12), ("2T", None, 24), ("2O", None, 48),
          ("2I", None, 120)]


def build_group_from_generators(generators, field_order, expected_order, label="custom"):
    """Close arbitrary cyclotomic generators, hard-checking the expected order
    and determinant one everywhere.

    Unlike build_group it does not require -identity: odd-order cyclic
    subgroups of SU(2) do not contain it.
    """
    elements = _closed_unimodular(generators, field_order, expected_order, label)
    return MatrixGroup(label, field_order, elements)


def odd_cyclic_group(m):
    """The cyclic group of odd order m in SU(2), generated by diag(z, 1/z)."""
    zero = CyclotomicNumber.zero(m)
    return build_group_from_generators((Mat2(zeta(m), zero, zero, zeta(m, m - 1)),), m, m)


def sym_power_trace(mat, p):
    """Trace of the degree-p symmetric power from the explicit basis action.

    The matrix substitutes x -> a x + c y, y -> b x + d y into each basis
    monomial x^i y^(p-i); the trace sums the diagonal coefficients.  Quadratic
    cost in p: the low-degree reference for the trace recursion.
    """
    order = mat.a.order
    if p == 0:
        return CyclotomicNumber.one(order)
    pow_a = [CyclotomicNumber.one(order)]
    pow_b = [CyclotomicNumber.one(order)]
    pow_c = [CyclotomicNumber.one(order)]
    pow_d = [CyclotomicNumber.one(order)]
    for _ in range(p):
        pow_a.append(pow_a[-1] * mat.a)
        pow_b.append(pow_b[-1] * mat.b)
        pow_c.append(pow_c[-1] * mat.c)
        pow_d.append(pow_d[-1] * mat.d)
    total = CyclotomicNumber.zero(order)
    for i in range(p + 1):
        j = p - i
        for k in range(i + 1):
            if j - (i - k) < 0:
                continue
            count = comb(i, k) * comb(j, i - k)
            if count == 0:
                continue
            term = pow_a[k] * pow_c[i - k] * pow_b[i - k] * pow_d[j - i + k]
            total = total + term * count
    return total


@pytest.mark.parametrize("label,n,expected", GROUPS)
def test_group_orders_and_unimodularity(label, n, expected):
    group = build_group(label, n)
    assert group.order == expected
    one = CyclotomicNumber.one(group.field_order)
    ident = Mat2.identity(group.field_order)
    keys = set(group.elements)
    assert len(keys) == group.order               # no element listed twice
    assert ident in keys
    assert ident.neg() in keys                    # contains -identity
    for m in group.elements:
        assert m.det() == one


@pytest.mark.parametrize("label,n,expected", [("BD", 2, 8), ("BD", 3, 12),
                                              ("2T", None, 24), ("2O", None, 48)])
def test_full_closure_table_and_inverses(label, n, expected):
    group = build_group(label, n)
    keys = set(group.elements)
    for a in group.elements:
        # adjugate of a determinant-1 matrix is its inverse
        inverse = Mat2(a.d, -a.b, -a.c, a.a)
        assert inverse in keys
        for b in group.elements:
            assert a * b in keys


def test_icosahedral_closure_sampled():
    group = build_group("2I")
    keys = set(group.elements)
    rng = random.Random(5)
    elements = group.elements
    for _ in range(300):
        a = elements[rng.randrange(len(elements))]
        b = elements[rng.randrange(len(elements))]
        assert a * b in keys
    for a in elements:
        assert Mat2(a.d, -a.b, -a.c, a.a) in keys


def test_minus_one_squares_to_identity():
    group = build_group("BD", 2)
    minus = Mat2.identity(group.field_order).neg()
    assert minus * minus == Mat2.identity(group.field_order)


def test_invalid_labels():
    with pytest.raises(ValueError):
        build_group("BD", 1)
    with pytest.raises(ValueError):
        build_group("BD")
    with pytest.raises(ValueError):
        build_group("nope")


def test_wrong_generators_detected():
    # a non-unit-determinant generator cannot close to a finite unimodular group
    zero = CyclotomicNumber.zero(4)
    one = CyclotomicNumber.one(4)
    two = one * 2
    infinite = Mat2(two, zero, zero, one)
    with pytest.raises(IntegrityError, match="exceeded twice"):
        build_group_from_generators((infinite,), 4, 8)
    # after a finite generator, the infinite one grows through whole cosets
    finite = Mat2(zeta(4), zero, zero, -zeta(4))
    with pytest.raises(IntegrityError, match="exceeded twice"):
        build_group_from_generators((finite, infinite), 4, 8)


def test_custom_group_must_be_unimodular():
    # diag(i, 1) closes to order 4, but its determinant is i, so the trace
    # lookup would find no order for trace 1 + i and lose the true counts 1, 1, 1
    zero = CyclotomicNumber.zero(4)
    one = CyclotomicNumber.one(4)
    with pytest.raises(IntegrityError, match="non-unimodular"):
        build_group_from_generators((Mat2(zeta(4), zero, zero, one),), 4, 4)


def test_custom_group_without_minus_identity_is_accepted():
    # the cyclic group of order 3 in SU(2) does not contain -identity
    zero = CyclotomicNumber.zero(3)
    rot = Mat2(zeta(3), zero, zero, zeta(3, 2))
    group = build_group_from_generators((rot,), 3, 3)
    # invariants of diag(w, w^2): x^a y^b with a = b mod 3
    assert [invariant_dimension(group, p) for p in range(7)] == [1, 0, 1, 2, 1, 2, 3]


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
    gens = [h * g * h_inv for g in _bd_generators(2, 8)]
    conjugated = build_group_from_generators(gens, 8, 8, label="BD2-conjugated")
    for p in range(0, 9):
        assert invariant_dimension(conjugated, p) == invariant_dimension(base, p)


def test_tetrahedral_generators_over_q_zeta8_close_inside_2o():
    # 2O is built from 2T's generators written directly over Q(zeta_8)
    two_t = build_group_from_generators(_binary_tetrahedral_generators(8), 8, 24, label="2T-in-8")
    assert two_t.order == 24
    assert set(two_t.elements) <= set(build_group("2O").elements)


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
    result = molien_series(group)
    extended = tuple(invariant_dimension(group, p) for p in range(61))
    assert result.series.expand(60) == extended


# -- the exact series ---------------------------------------------------------------

CATALOG_GROUPS = [("BD", n) for n in range(2, 21)] + [("2T", None), ("2O", None),
                                                      ("2I", None)]


def _breadth_first_closure(generators, field_order):
    """Reference closure: every element times every generator until nothing is new."""
    seen = {Mat2.identity(field_order)}
    frontier = list(seen)
    while frontier:
        frontier = [m * g for m in frontier for g in generators]
        frontier = [m for m in set(frontier) if m not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("label,n", CATALOG_GROUPS)
def test_closure_equals_breadth_first_reference(label, n):
    group = build_group(label, n)
    generators = {"BD": lambda: _bd_generators(n, group.field_order),
                  "2T": _binary_tetrahedral_generators,
                  "2O": _binary_octahedral_generators,
                  "2I": _binary_icosahedral_generators}[label]()
    reference = _breadth_first_closure(generators, group.field_order)
    assert set(group.elements) == reference
    assert group.cyclic_subgroups == MatrixGroup(label, group.field_order,
                                                 reference).cyclic_subgroups


@pytest.mark.parametrize("generators,field_order,order", [
    # a redundant generator: rot^2 lies in the group of rot
    ((*_bd_generators(4, 8), _bd_generators(4, 8)[0] * _bd_generators(4, 8)[0]), 8, 16),
    (_binary_octahedral_generators()[::-1], 8, 48),
    (_binary_tetrahedral_generators(8), 8, 24)], ids=["BD4-rot2", "2O-reversed", "2T-in-8"])
def test_closure_of_other_generating_sets_equals_reference(generators, field_order, order):
    group = build_group_from_generators(generators, field_order, order)
    assert set(group.elements) == _breadth_first_closure(generators, field_order)


def _fit(group, period):
    """P/((1 - t^period)(1 - t^2)) with P fixed by the averages through degree period."""
    dims = [invariant_dimension(group, p) for p in range(period + 1)]
    den = listpoly.mul(listpoly.one_minus_power(period), listpoly.one_minus_power(2))
    return HilbertSeries(tuple(listpoly.mul(dims, den)[: period + 1]), (2, period))


def _direct(group, top):
    return tuple(invariant_dimension(group, p) for p in range(top + 1))


@pytest.mark.parametrize("label,n", CATALOG_GROUPS)
def test_exact_series_equals_direct_averages_through_three_times_the_order(label, n):
    group = build_group(label, n)
    result = molien_series(group)
    top = 3 * group.order
    assert result.series == _fit(group, group.order)
    assert result.series.expand(top) == _direct(group, top)
    assert result.dims == result.series.expand(len(result.dims) - 1)


def test_fit_over_half_the_order_disagrees_with_direct_averages():
    group = build_group("BD", 3)
    top = 3 * group.order
    half = _fit(group, group.order // 2)
    assert half.expand(top) != _direct(group, top)


@pytest.mark.parametrize("label,n", [("BD", 2), ("BD", 5), ("2T", None), ("2O", None),
                                     ("2I", None)])
def test_perturbed_numerator_loses_the_hypersurface_form(label, n):
    group = build_group(label, n)
    fitted = _fit(group, group.order)
    original = _hypersurface_form(fitted)
    assert original is not None
    found, formless = [], 0
    for spot in range(len(fitted.numerator) + 1):
        for delta in (1, -1):
            bent = list(fitted.numerator) + [0]
            bent[spot] += delta
            series = HilbertSeries(tuple(bent), fitted.den_weights)
            try:
                form = _hypersurface_form(series)
            except IntegrityError:  # a negative coefficient is refused outright
                continue
            if form is None:
                formless += 1
                continue
            assert form != original
            assert series_from_generator_degrees(form[:3], form[3]) == series
            found.append((spot, delta, form))
    # one bent term is still a form only for BD_n at t^(2n), which gives BD_2n's series
    want = [(2 * n, -1, (4, 4 * n, 4 * n + 2, 8 * n + 4))] if label == "BD" else []
    assert found == want and formless >= len(fitted.numerator)


def test_unclosed_element_set_raises_integrity_error():
    # bypass the closure builder: a one-element "group" without the identity
    # has an element of no order, which invariant_dimension must refuse
    z8 = zeta(8)
    zero = CyclotomicNumber.zero(8)
    bogus = MatrixGroup("custom", 8, (Mat2(z8, zero, zero, zero),))
    with pytest.raises(IntegrityError):
        invariant_dimension(bogus, 1)


def test_failed_call_stores_no_cached_state():
    # trace sqrt(2) gives one element of order 8, no multiple of phi(8) = 4; the order
    # table is stored only once it is computed, so a second call fails the same way
    z8 = zeta(8)
    zero = CyclotomicNumber.zero(8)
    rot = Mat2(z8, zero, zero, -zeta(8, 3))
    bogus = MatrixGroup("custom", 8, (rot,))
    messages = []
    for _ in range(2):
        with pytest.raises(IntegrityError, match=r"1 elements of order 8 .* phi\(8\)") as info:
            invariant_dimension(bogus, 1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "cyclic_subgroups" not in vars(bogus)
    with pytest.raises(IntegrityError, match=r"1 elements of order 8 .* phi\(8\)"):
        molien_series(bogus)
    assert "cyclic_subgroups" not in vars(bogus)


def test_element_counts_must_be_multiples_of_phi():
    # {I, diag(w, w^2)} is no group: one element of order 3 is no multiple of phi(3) = 2
    zero = CyclotomicNumber.zero(3)
    ident = Mat2.identity(3)
    rot = Mat2(zeta(3), zero, zero, zeta(3, 2))
    # the lookup runs over the roots of unity of order lcm(3, |G|) = 6, so it finds
    # the order 3, and the count fails the phi test ...
    with pytest.raises(IntegrityError, match=r"1 elements of order 3 .* phi\(3\)"):
        invariant_dimension(MatrixGroup("custom", 3, (ident, rot)), 0)
    # ... and with -I added, |G| = 3 is odd: no cube root of unity z has z + 1/z = -2,
    # so the order 2 of -I, which does not divide |G|, is refused at its trace
    with pytest.raises(IntegrityError, match="trace -2 in custom "):
        invariant_dimension(MatrixGroup("custom", 3, (ident, ident.neg(), rot)), 0)


def test_trace_outside_the_lookup_table_raises():
    # diag(2, 1/2) has determinant 1 and infinite order: its trace 5/2 is no
    # z + 1/z for a root of unity z, and the failed call stores no order table
    zero = CyclotomicNumber.zero(4)
    one = CyclotomicNumber.one(4)
    stretch = Mat2(one * 2, zero, zero, one * Fraction(1, 2))
    bogus = MatrixGroup("custom", 4, (Mat2.identity(4), stretch))
    for _ in range(2):
        with pytest.raises(IntegrityError, match="trace 5/2 in custom "):
            bogus.cyclic_subgroups
        assert "cyclic_subgroups" not in vars(bogus)


@pytest.mark.parametrize("label", ["2O", "2I"])
def test_traces_print_in_the_polynomial_text_format(label):
    group = build_group(label)
    ctx = VariableContext((f"z{group.field_order}",))
    traces = {g.trace() for g in group.elements}
    assert len(traces) > 2
    for t in traces:
        assert ctx.parse(repr(t)) == ctx.poly({(e,): c for e, c in enumerate(t.coeffs)})


def test_average_not_divisible_by_the_order_raises():
    # {I, -I, diag(w, w^2), diag(w^2, w)} passes the order and phi tests but is no
    # group: its degree-2 traces add up to 6, which 4 does not divide
    zero = CyclotomicNumber.zero(3)
    ident = Mat2.identity(3)
    rot = Mat2(zeta(3), zero, zero, zeta(3, 2))
    bogus = MatrixGroup("custom", 3, (ident, ident.neg(), rot, rot * rot))
    assert invariant_dimension(bogus, 0) == 1
    with pytest.raises(IntegrityError, match="invariant average 3/2 at degree 2 "):
        invariant_dimension(bogus, 2)


def test_element_order_not_dividing_the_group_order_raises_in_the_series():
    # the same four elements: order 3 does not divide 4, so (1 - t^4)/(1 - t^3) is
    # no polynomial, and the order is named as the fault before any sum is formed
    zero = CyclotomicNumber.zero(3)
    ident = Mat2.identity(3)
    rot = Mat2(zeta(3), zero, zero, zeta(3, 2))
    bogus = MatrixGroup("custom", 3, (ident, ident.neg(), rot, rot * rot))
    with pytest.raises(IntegrityError, match="element order 3 does not divide the order 4 "):
        molien_series(bogus)


def test_non_integral_numerator_coefficient_raises_in_the_series():
    # {I, -I} and two order-3 pairs that generate more than these six: every order
    # divides 6, but the average of 1/det(1 - g t) has t-coefficient -4/6
    zero = CyclotomicNumber.zero(3)
    one = CyclotomicNumber.one(3)
    ident = Mat2.identity(3)
    rot = Mat2(zeta(3), zero, zero, zeta(3, 2))
    other = Mat2(zero, one, -one, -one)
    bogus = MatrixGroup("custom", 3, (ident, ident.neg(), rot, rot * rot, other, other * other))
    assert bogus.cyclic_subgroups == {1: 1, 2: 1, 3: 2}
    with pytest.raises(IntegrityError, match="coefficient -2/3 at degree 1 "):
        molien_series(bogus)


# -- the order histogram against the cyclotomic trace averages ------------------


def _trace_averages(group, top):
    """(1/|G|) sum of tr Sym^p(g) for p = 0..top, run in the cyclotomic field.

    Unit determinant gives T_p = tr(g) T_{p-1} - T_{p-2} per distinct trace; an
    average that is not rational comes back as None.
    """
    counts = Counter(g.trace() for g in group.elements)
    zero = CyclotomicNumber.zero(group.field_order)
    states = {trace: (zero, CyclotomicNumber.one(group.field_order)) for trace in counts}
    averages = []
    for _ in range(top + 1):
        total = zero
        for trace, mult in counts.items():
            prev, cur = states[trace]
            total = total + cur * mult
            states[trace] = (cur, trace * cur - prev)
        averages.append((total * Fraction(1, group.order)).to_rational())
    return tuple(averages)


@pytest.mark.parametrize("label,n", CATALOG_GROUPS)
def test_order_histogram_equals_trace_averages_past_the_order(label, n):
    group = build_group(label, n)
    top = group.order + 25
    assert _direct(group, top) == _trace_averages(group, top)


@pytest.mark.parametrize("m", [3, 5, 9, 15])
def test_order_histogram_equals_trace_averages_without_minus_identity(m):
    # with -identity, g and -g pair orders k and 2k for odd k, and the odd-d terms
    # of their Ramanujan sums cancel; odd cyclic groups have no such pairing
    group = odd_cyclic_group(m)
    top = m + 25
    assert _direct(group, top) == _trace_averages(group, top)


def _elements_per_order(group):
    return {k: count * euler_phi(k) for k, count in group.cyclic_subgroups.items()}


@pytest.mark.parametrize("label,want", [
    ("2T", {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}),
    ("2O", {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}),
    ("2I", {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24})])
def test_elements_per_order_of_the_exceptional_groups(label, want):
    assert _elements_per_order(build_group(label)) == want


def test_elements_per_order_of_binary_dihedral_groups():
    # the cyclic part of order 2n has phi(k) elements of each order k | 2n; the
    # 2n elements off it square to -identity
    for n in range(2, 21):
        want = {k: euler_phi(k) for k in range(1, 2 * n + 1) if 2 * n % k == 0}
        want[4] = want.get(4, 0) + 2 * n
        assert _elements_per_order(build_group("BD", n)) == want, n


def _order_by_powers(g):
    """The least k with g^k == identity, by repeated products: no trace is read."""
    ident = Mat2.identity(g.a.order)
    power, k = g, 1
    while power != ident:
        power, k = power * g, k + 1
    return k


@pytest.mark.parametrize("label,n", [("BD", n) for n in range(2, 13)]
                         + [("2T", None), ("2O", None), ("2I", None)]
                         + [("C", m) for m in (3, 5, 9, 15)])
def test_trace_lookup_equals_orders_by_repeated_products(label, n):
    group = odd_cyclic_group(n) if label == "C" else build_group(label, n)
    want = Counter(_order_by_powers(g) for g in group.elements)
    assert _elements_per_order(group) == want


# -- the hypersurface search against the exhaustive reference -------------------


def _exhaustive_hypersurface(dims, max_degree):
    """Reference search: full expansion and two full scans per candidate."""
    evens = range(2, max_degree // 2 + 1, 2)
    for d1 in evens:
        for d2 in range(d1, max_degree // 2 + 1, 2):
            for d3 in range(d2, max_degree // 2 + 1, 2):
                u = [0] * (max_degree + 1)
                u[0] = 1
                for w in (d1, d2, d3):
                    for i in range(w, max_degree + 1):
                        u[i] += u[i - w]
                e = None
                for pdeg in range(max_degree + 1):
                    if u[pdeg] != dims[pdeg]:
                        e = pdeg
                        break
                if e is None or e == 0:
                    continue
                ok = True
                for pdeg in range(e, max_degree + 1):
                    expect = u[pdeg] - (u[pdeg - e] if pdeg >= e else 0)
                    if expect != dims[pdeg]:
                        ok = False
                        break
                if ok:
                    return (d1, d2, d3, e)
    return None


def test_early_exit_search_agrees_with_exhaustive_reference():
    # the reference scans a window, so it needs one through the relation degree:
    # |G| + 4 reaches it for every catalog group (BD_n: e = 4n + 4 = |G| + 4)
    for label, n in CATALOG_GROUPS:
        group = build_group(label, n)
        window = group.order + 4
        want = _exhaustive_hypersurface(list(_direct(group, window)), window)
        assert want is not None, (label, n)
        assert _hypersurface_form(_fit(group, group.order)) == want, (label, n)
