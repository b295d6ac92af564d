import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    divided_difference_by_division,
    parse_polynomial_reference,
    reflect,
    reflection_images,
    simple_root,
)
from test_fuzz import POLYNOMIALS

from korbits.algebra import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    Polynomial,
    VariableSpace,
    divided_difference,
    elementary_symmetric,
    exact_divide,
    lift_y,
    parse_polynomial,
    poly_determinant,
    product,
    simple_root_action,
    split_leading_x,
)
from korbits.classes import propagate_all
from korbits.errors import ContractViolation, UsageError
from korbits.orbits import build_weak_order_graph
from korbits.pairs import parse_pair_spec

SP = VariableSpace(2, 4)


# -- the tuple-dict oracle ------------------------------------------------------
# The representation packed monomials replaced: a dict from exponent tuples
# (one entry per slot, x-bank first) to nonzero coefficients.  The packed
# code is compared with it through VariableSpace.exponents and .pack.


def exponent_terms(poly):
    return {poly.space.exponents(mono): c for mono, c in poly.terms.items()}


def packed(sp, terms):
    return Polynomial(sp, {sp.pack(mono): c for mono, c in terms.items()})


def _nonzero(terms):
    return {mono: c for mono, c in terms.items() if c}


def reference_add(f, g):
    out = dict(f)
    for mono, c in g.items():
        out[mono] = out.get(mono, 0) + c
    return _nonzero(out)


def reference_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return _nonzero(out)


def reference_substitute(sp, f, assignment):
    # assignment as for Polynomial.substitute: y index -> None or (sign, bank, index)
    r = sp.x_count
    out = {}
    for mono, c in f.items():
        new = list(mono[:r]) + [0] * sp.y_count
        for j, e in enumerate(mono[r:], start=1):
            if not e:
                continue
            target = assignment[j]
            if target is None:
                break
            sign, bank, idx = target
            new[idx - 1 if bank == "x" else r + idx - 1] += e
            c *= sign**e
        else:
            out[tuple(new)] = out.get(tuple(new), 0) + c
    return _nonzero(out)


def reference_divided_difference(f, act):
    # the closed forms of algebra.divided_difference on exponent tuples
    s, out = act.slot, {}
    if act.shape in ("B", "C"):
        scale = 2 if act.shape == "B" else 1
        for mono, coeff in f.items():
            if mono[s] & 1:
                out[mono[:s] + (mono[s] - 1,) + mono[s + 1 :]] = scale * coeff
        return _nonzero(out)
    twisted = act.shape == "D"
    for mono, coeff in f.items():
        a, b = mono[s], mono[s + 1]
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        if a < b:
            coeff = -coeff
        if twisted and not (a + lo) & 1:
            coeff = -coeff
        alt = -coeff if twisted else coeff
        for e in range(lo, hi):
            key = mono[:s] + (e, a + b - 1 - e) + mono[s + 2 :]
            out[key] = out.get(key, 0) + coeff
            coeff, alt = alt, coeff
    return _nonzero(out)


def reference_format(sp, f):
    names = [sp.var_name(slot) for slot in range(sp.nvars)]
    parts = []
    for mono in sorted(f, key=lambda m: (sum(m), m), reverse=True):
        coeff = f[mono]
        body = "*".join(
            names[slot] if e == 1 else f"{names[slot]}^{e}" for slot, e in enumerate(mono) if e
        )
        mag = abs(coeff)
        text = body if body and mag == 1 else f"{mag}*{body}" if body else str(mag)
        sign = ("-" if coeff < 0 else "") if not parts else ("- " if coeff < 0 else "+ ")
        parts.append(sign + text)
    return " ".join(parts) if parts else "0"


def integral_values_are_ints(poly):
    return all(type(c) is int or c.denominator > 1 for c in poly.terms.values())


def test_addition_cancels():
    sp = VariableSpace(0, 2)
    assert (sp.y(1) + sp.y(2)) + (sp.y(2) - sp.y(1)) == 2 * sp.y(2)


def test_multiplicative_identity():
    f = SP.x(1) - SP.y(3)
    assert f * SP.one() == f


def test_product_expansion():
    sp = VariableSpace(0, 3)
    got = (sp.y(1) + sp.y(2)) * (sp.y(1) + sp.y(3))
    want = sp.y(1) ** 2 + sp.y(1) * sp.y(3) + sp.y(1) * sp.y(2) + sp.y(2) * sp.y(3)
    assert got == want


def test_space_mismatch_rejected():
    other = VariableSpace(1, 4)
    with pytest.raises(ContractViolation):
        SP.x(1) + other.x(1)


def test_canonical_form_ignores_build_order():
    terms = [SP.x(1) * SP.y(2), SP.const(3), -SP.y(4) ** 2]
    forward = SP.zero()
    for t in terms:
        forward = forward + t
    backward = SP.zero()
    for t in reversed(terms):
        backward = backward + t
    assert forward == backward
    assert exponent_terms(forward) == exponent_terms(backward)


def test_homogeneous_degree():
    assert (SP.x(1) * SP.y(1) + SP.y(2) ** 2).homogeneous_degree() == 2
    assert (SP.x(1) + SP.one()).homogeneous_degree() is None


# -- substitution -----------------------------------------------------------


def test_substitute_simple():
    f = SP.x(1) - SP.y(3)
    got = f.substitute({3: (1, "x", 2)})
    assert got == SP.x(1) - SP.x(2)


def test_substitute_signed_and_zero():
    # y1 -> -x1, y2 -> 0 sends y1 + y2 to -x1
    sp = VariableSpace(1, 3)
    f = sp.y(1) + sp.y(2)
    got = f.substitute({1: (-1, "x", 1), 2: None})
    assert got == -sp.x(1)


def test_substitute_composed_action():
    # the value matches the direct weight product at the bottom fixed point
    sp = VariableSpace(1, 3)
    f = -2 * (sp.y(1) + sp.y(2)) * (sp.y(2) + sp.y(3))
    got = f.substitute({1: (-1, "x", 1), 2: None, 3: (1, "x", 1)})
    assert got == 2 * sp.x(1) ** 2


def test_substitute_missing_assignment():
    with pytest.raises(ContractViolation):
        SP.y(1).substitute({2: None})


# -- elementary symmetric ----------------------------------------------------


def test_elementary_symmetric_basic():
    sp = VariableSpace(2, 2)
    assert elementary_symmetric(1, [sp.x(1), sp.x(2)], sp) == sp.x(1) + sp.x(2)
    assert elementary_symmetric(3, [sp.y(1), sp.y(2)], sp).is_zero
    assert elementary_symmetric(2, [sp.y(1), -sp.y(2)], sp) == -(sp.y(1) * sp.y(2))
    assert elementary_symmetric(0, [], sp) == sp.one()


# -- lifting y-polynomials and leading x-parts -------------------------------


def test_lift_y_carries_a_y_polynomial_to_another_x_bank():
    small, big = VariableSpace(1, 2), VariableSpace(3, 2)
    f = 3 * small.y(1) ** 2 * small.y(2) - small.y(2) + 5
    assert lift_y(f, big) == 3 * big.y(1) ** 2 * big.y(2) - big.y(2) + 5
    assert lift_y(small.zero(), big).is_zero


def test_lift_y_contract():
    small = VariableSpace(1, 2)
    for poly, space in (
        (small.x(1) * small.y(1) + small.y(2), VariableSpace(3, 2)),  # x-content
        (small.y(1), VariableSpace(1, 3)),  # another y-bank
    ):
        with pytest.raises(ContractViolation, match="carries a y-polynomial"):
            lift_y(poly, space)


def test_split_leading_x_and_monomial():
    f = parse_polynomial("x1*x2*y1 - 2*x1*x2*y3^2 + x2^2*y1 + x1 + y4", SP)
    lead, c = split_leading_x(f)
    assert lead == (1, 1)
    assert c == parse_polynomial("y1 - 2*y3^2", SP)
    assert SP.monomial((1, 1, 0, 0, 0, 2)) == SP.x(1) * SP.x(2) * SP.y(4) ** 2
    for bad in [(1, 1), (0, 0, 0, 0, 0, -1)]:
        with pytest.raises(ContractViolation):
            SP.monomial(bad)
    with pytest.raises(ContractViolation):
        split_leading_x(SP.zero())


def test_no_term_dict_reads_outside_algebra():
    # the monomial format is algebra.py's alone; other modules use its
    # ring operations, lift_y and split_leading_x
    src = Path(__file__).resolve().parents[1] / "src" / "korbits"
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "algebra.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\.terms\b", line)
    ]
    assert offenders == []


# -- determinants -------------------------------------------------------------


def test_determinant_identity_matrix():
    rows = [[SP.one(), SP.zero()], [SP.zero(), SP.one()]]
    assert poly_determinant(rows) == SP.one()


def test_determinant_known_factorization():
    sp = VariableSpace(2, 2)
    xs = [sp.x(1), sp.x(2)]
    ys = [sp.y(1), sp.y(2)]

    def c(k):
        return elementary_symmetric(k, xs, sp) + elementary_symmetric(k, ys, sp)

    det = poly_determinant([[c(2), c(3)], [c(0), c(1)]])
    want = (sp.x(1) * sp.x(2) + sp.y(1) * sp.y(2)) * (
        sp.x(1) + sp.x(2) + sp.y(1) + sp.y(2)
    )
    assert det == want


def sympy_form(sympy, symbols, poly):
    return sum(
        (
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*[v**e for v, e in zip(symbols, mono)])
            for mono, c in exponent_terms(poly).items()
        ),
        sympy.Integer(0),
    )


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_determinant_matches_sympy(size):
    sympy = pytest.importorskip("sympy")
    sp = VariableSpace(1, 2)
    symbols = sympy.symbols("x1 y1 y2")
    rng = random.Random(size)
    for _ in range(3):
        rows = [
            [
                sp.zero() if rng.random() < 0.2 else random_polynomial(sp, rng, terms=2, max_exp=1)
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        matrix = sympy.Matrix([[sympy_form(sympy, symbols, f) for f in row] for row in rows])
        want = matrix.det(method="berkowitz")
        assert sympy.expand(want - sympy_form(sympy, symbols, poly_determinant(rows))) == 0


def test_determinant_rejects_ragged():
    with pytest.raises(ContractViolation):
        poly_determinant([[SP.one(), SP.zero()], [SP.one()]])


# -- divided differences -------------------------------------------------------


def test_divided_difference_flag_example():
    f = product(
        SP,
        [SP.x(i) - SP.y(j) for i in (1, 2) for j in (3, 4)],
    )
    got = divided_difference(f, simple_root_action(SP, "A", 2))
    want = (
        (SP.x(1) - SP.y(4))
        * (SP.x(2) - SP.y(4))
        * (SP.x(1) + SP.x(2) - SP.y(2) - SP.y(3))
    )
    assert got == want


def test_divided_difference_orthogonal_example():
    sp = VariableSpace(1, 3)
    f = -2 * (sp.y(1) + sp.y(2)) * (sp.y(2) + sp.y(3))
    got = divided_difference(f, simple_root_action(sp, "A", 1))
    assert got == 2 * (sp.y(1) + sp.y(2))


def test_divided_difference_kills_symmetric():
    f = SP.y(1) * SP.y(2) + SP.y(1) + SP.y(2)
    assert divided_difference(f, simple_root_action(SP, "A", 1)).is_zero


def test_exact_divide_detects_nonexact():
    from korbits.errors import InternalError

    # the message names the divisor and the remainder term it cannot divide
    with pytest.raises(InternalError) as info:
        exact_divide(SP.y(1) + SP.one(), SP.y(2))
    assert str(info.value) == "non-exact polynomial division by y2: leading remainder term y1"
    # y1^2 + 1 = y1*(y1 - y2) + y2*(y1 - y2) + y2^2 + 1
    with pytest.raises(InternalError) as info:
        exact_divide(SP.y(1) ** 2 + SP.one(), SP.y(1) - SP.y(2))
    assert str(info.value) == (
        "non-exact polynomial division by y1 - y2: leading remainder term y2^2"
    )


# -- randomized operator laws -------------------------------------------------


def random_polynomial(sp, rng, terms=4, max_exp=2):
    f = sp.zero()
    for _ in range(terms):
        mono = sp.const(Fraction(rng.randint(-4, 4)))
        for slot in range(sp.nvars):
            e = rng.randint(0, max_exp)
            if e:
                name = sp.var_name(slot)
                var = sp.x(int(name[1:])) if name[0] == "x" else sp.y(int(name[1:]))
                mono = mono * var ** e
        f = f + mono
    return f


def actions_for(family, sp):
    n = sp.y_count
    return [simple_root_action(sp, family, i) for i in range(1, n + 1 - (family == "A"))]


@pytest.mark.parametrize("family,m", [("A", 4), ("B", 3), ("C", 3), ("D", 3)])
def test_nilpotence_and_leibniz(family, m):
    rng = random.Random(42)
    sp = VariableSpace(1, m)
    acts = actions_for(family, sp)
    for _ in range(30):
        f = random_polynomial(sp, rng)
        g = random_polynomial(sp, rng)
        for i, act in enumerate(acts, start=1):
            once = divided_difference(f, act)
            assert divided_difference(once, act).is_zero
            lhs = divided_difference(f * g, act)
            s_f = reflect(f, family, i)
            rhs = divided_difference(f, act) * g + s_f * divided_difference(g, act)
            assert lhs == rhs


def test_braid_relations_type_a():
    rng = random.Random(3)
    sp = VariableSpace(0, 4)
    a1 = simple_root_action(sp, "A", 1)
    a2 = simple_root_action(sp, "A", 2)
    a3 = simple_root_action(sp, "A", 3)
    for _ in range(25):
        f = random_polynomial(sp, rng)
        d121 = divided_difference(divided_difference(divided_difference(f, a1), a2), a1)
        d212 = divided_difference(divided_difference(divided_difference(f, a2), a1), a2)
        assert d121 == d212
        d13 = divided_difference(divided_difference(f, a1), a3)
        d31 = divided_difference(divided_difference(f, a3), a1)
        assert d13 == d31


@pytest.mark.parametrize("family", ["B", "C"])
def test_braid_relations_bc_tail(family):
    rng = random.Random(11)
    sp = VariableSpace(0, 2)
    a1 = simple_root_action(sp, family, 1)
    a2 = simple_root_action(sp, family, 2)
    for _ in range(25):
        f = random_polynomial(sp, rng)

        def chain(first, second):
            out = f
            for act in (first, second, first, second):
                out = divided_difference(out, act)
            return out

        assert chain(a1, a2) == chain(a2, a1)


def test_braid_relations_type_d_tail():
    rng = random.Random(13)
    sp = VariableSpace(0, 3)
    a1 = simple_root_action(sp, "D", 1)
    a2 = simple_root_action(sp, "D", 2)
    a3 = simple_root_action(sp, "D", 3)
    for _ in range(25):
        f = random_polynomial(sp, rng)
        # alpha_3 commutes with alpha_2 and braids with alpha_1 in rank 3
        d23 = divided_difference(divided_difference(f, a2), a3)
        d32 = divided_difference(divided_difference(f, a3), a2)
        assert d23 == d32
        d131 = divided_difference(divided_difference(divided_difference(f, a1), a3), a1)
        d313 = divided_difference(divided_difference(divided_difference(f, a3), a1), a3)
        assert d131 == d313


def test_degree_drop():
    rng = random.Random(5)
    sp = VariableSpace(1, 3)
    for family in ("A", "B", "C", "D"):
        for act in actions_for(family, sp):
            for _ in range(10):
                f = sp.zero()
                for _ in range(3):
                    mono = sp.const(rng.randint(1, 3))
                    budget = 3
                    for slot in range(sp.nvars):
                        e = rng.randint(0, budget)
                        budget -= e
                        if e:
                            name = sp.var_name(slot)
                            var = (
                                sp.x(int(name[1:]))
                                if name[0] == "x"
                                else sp.y(int(name[1:]))
                            )
                            mono = mono * var ** e
                    # pad to exact degree 3 with y1
                    mono = mono * sp.y(1) ** budget
                    f = f + mono
                result = divided_difference(f, act)
                assert result.is_zero or result.homogeneous_degree() == 2


# -- closed forms against the division-based operator --------------------------


coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def polynomials(sp, max_exp=6):
    monomial = st.tuples(*([st.integers(0, max_exp)] * sp.nvars))
    return st.dictionaries(monomial, coefficients, max_size=6).map(
        lambda terms: packed(sp, terms)
    )


FAMILY_RANKS = [(family, m) for family in "ABCD" for m in (2, 3, 4)]


@pytest.mark.parametrize("family,m", FAMILY_RANKS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_forms_match_division(family, m, data):
    sp = VariableSpace(1, m)
    f = data.draw(polynomials(sp))
    for i, act in enumerate(actions_for(family, sp), start=1):
        assert divided_difference(f, act) == divided_difference_by_division(f, family, i)


RANK_TWO_PAIRS = [
    "A:glpq:1,1",
    "A:so:5",
    "A:so-even:4",
    "A:sp:4",
    "B:oo:1,1",
    "C:spsp:1,1",
    "C:gl:2",
    "D:oo:1,1",
    "D:gl:2",
    "D:oo-odd:1,1",
]


@pytest.mark.parametrize("spec", RANK_TWO_PAIRS)
def test_closed_forms_match_division_on_every_edge(spec):
    pair = parse_pair_spec(spec)
    classes = propagate_all(pair)
    edges = build_weak_order_graph(pair).edges
    assert edges
    for edge in edges:
        f = classes[edge.source].polynomial
        act = simple_root_action(pair.variable_space(), pair.kind.roots, edge.root_index)
        assert divided_difference(f, act) == divided_difference_by_division(
            f, pair.kind.roots, edge.root_index
        )


@pytest.mark.parametrize("family", "ABCD")
def test_closed_forms_match_sympy(family):
    sympy = pytest.importorskip("sympy")
    sp = VariableSpace(1, 3)
    symbols = sympy.symbols("x1 y1 y2 y3")

    rng = random.Random(7)
    for i, act in enumerate(actions_for(family, sp), start=1):
        images = {
            symbols[1 + j]: sign * symbols[k]
            for j, (sign, k) in enumerate(reflection_images(family, sp.y_count, i))
        }
        for _ in range(15):
            f = random_polynomial(sp, rng, terms=5, max_exp=4)
            g = sympy_form(sympy, symbols, f)
            root = sympy_form(sympy, symbols, simple_root(sp, family, i))
            want = sympy.cancel((g - g.subs(images, simultaneous=True)) / root)
            got = sympy_form(sympy, symbols, divided_difference(f, act))
            assert sympy.expand(want - got) == 0


# -- hypothesis: ring laws stay canonical --------------------------------------

small_polys = st.lists(
    st.tuples(
        st.tuples(*([st.integers(0, 2)] * 3)),
        st.integers(-5, 5),
    ),
    max_size=5,
)


def _build(sp, data):
    f = sp.zero()
    for mono, coeff in data:
        term = sp.const(coeff)
        slots = [sp.x(1), sp.y(1), sp.y(2)]
        for var, e in zip(slots, mono):
            term = term * var ** e
        f = f + term
    return f


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(da, db, dc):
    sp = VariableSpace(1, 2)
    a, b, c = (_build(sp, d) for d in (da, db, dc))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


def tuple_polynomials(sp, max_exp=4):
    monomial = st.tuples(*([st.integers(0, max_exp)] * sp.nvars))
    return st.dictionaries(monomial, coefficients.filter(bool), max_size=6)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_code_matches_tuple_oracle(data):
    sp = VariableSpace(data.draw(st.integers(0, 2)), data.draw(st.integers(2, 3)))
    ft, gt = data.draw(tuple_polynomials(sp)), data.draw(tuple_polynomials(sp))
    f, g = packed(sp, ft), packed(sp, gt)
    assert exponent_terms(f) == ft
    results = [
        (f + g, reference_add(ft, gt)),
        (f - g, reference_add(ft, {m: -c for m, c in gt.items()})),
        (f * g, reference_mul(ft, gt)),
    ]
    for family in "ABCD":
        for act in actions_for(family, sp):
            results.append((divided_difference(f, act), reference_divided_difference(ft, act)))
    targets = st.none() | st.tuples(
        st.sampled_from([1, -1]),
        st.sampled_from("x" * bool(sp.x_count) + "y"),
        st.integers(1, 2),
    )
    assignment = {
        j: data.draw(targets.filter(lambda t: t is None or t[2] <= sp.x_count or t[1] == "y"))
        for j in range(1, sp.y_count + 1)
    }
    results.append((f.substitute(assignment), reference_substitute(sp, ft, assignment)))
    for got, want in results:
        assert exponent_terms(got) == want
        assert integral_values_are_ints(got)
    assert str(f) == reference_format(sp, ft)
    assert str(f * g) == reference_format(sp, reference_mul(ft, gt))


def test_degree_past_a_packed_field_is_a_contract_violation():
    sp = VariableSpace(1, 1)
    top = sp.x(1) ** MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE
    assert sp.exponents(next(iter(top.terms))) == (MAX_DEGREE, 0)
    for make in (
        lambda: top * sp.y(1),
        lambda: sp.y(1) ** (MAX_DEGREE + 1),
        lambda: sp.monomial((MAX_DEGREE, 1)),
    ):
        with pytest.raises(ContractViolation):
            make()


def test_sums_and_scalings_store_integral_values_as_ints():
    sp = VariableSpace(1, 1)
    half = Fraction(1, 2)
    for poly in (
        parse_polynomial("1/2*x1+1/2*x1", sp),
        parse_polynomial("1/2*x1-(-1/2)*x1", sp),
        (half * sp.x(1)) * (2 * sp.y(1)),
        (2 * sp.x(1)) / 2,
        sp.x(1) * half + sp.x(1) * half,
    ):
        assert integral_values_are_ints(poly), poly
        assert poly.terms


# -- parsing / printing ---------------------------------------------------------


def test_parse_round_trip():
    f = 2 * SP.x(1) ** 2 * SP.y(3) - SP.const(Fraction(1, 2)) * SP.y(1) + SP.one()
    assert parse_polynomial(str(f), SP) == f


def test_parse_factored_input():
    got = parse_polynomial("-(x1+x2-y1-y2)*(x1*x2+y1*y2)", VariableSpace(2, 2))
    sp = VariableSpace(2, 2)
    want = -(sp.x(1) + sp.x(2) - sp.y(1) - sp.y(2)) * (sp.x(1) * sp.x(2) + sp.y(1) * sp.y(2))
    assert got == want


def test_parse_fraction_and_power():
    sp = VariableSpace(0, 1)
    assert parse_polynomial("3/4*y1^2", sp) == sp.const(Fraction(3, 4)) * sp.y(1) ** 2


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(UsageError):
        parse_polynomial("2y1", VariableSpace(0, 2))


def test_parse_rejects_unknown_variable():
    with pytest.raises(ContractViolation):
        parse_polynomial("y5", VariableSpace(0, 2))


def test_parse_nesting_cap():
    space = VariableSpace(0, 1)
    deep = "(" * MAX_NESTING + "y1" + ")" * MAX_NESTING
    assert parse_polynomial(deep, space) == space.y(1)
    assert parse_polynomial("-" * (MAX_NESTING + 1) + "y1", space) == -space.y(1)
    for text in ("(" + deep + ")", "-" * (MAX_NESTING + 2) + "y1"):
        with pytest.raises(UsageError):
            parse_polynomial(text, space)


def test_parse_exponent_cap():
    space = VariableSpace(1, 2)
    assert parse_polynomial(f"y1^{MAX_EXPONENT}", space) == space.y(1) ** MAX_EXPONENT
    assert parse_polynomial("(y1*y2)^32", space) == (space.y(1) * space.y(2)) ** 32
    assert parse_polynomial(f"2^{MAX_EXPONENT}", space) == space.const(2**MAX_EXPONENT)
    assert parse_polynomial("x1^32*y1^32", space) == space.x(1) ** 32 * space.y(1) ** 32
    for text in (
        f"y1^{MAX_EXPONENT + 1}",
        "x1^64*x1^64*x1^64*x1^64",
        "x1^32*y1^32*y2",
        "(x1+1)^40*(y1+1)^40",
        "(x1*y1)^33",
        "y1^8^9",
        "((x1+y1)^64)^64",
        "(x1+y1)^100000",
        "y1^" + "9" * 5000,
    ):
        with pytest.raises(UsageError):
            parse_polynomial(text, space)


def parse_outcome(parse, text, space):
    """The terms and coefficient types a parser builds, or the type and
    message of the error it raises."""
    try:
        poly = parse(text, space)
    except (UsageError, ContractViolation) as exc:
        return type(exc), str(exc)
    return {mono: (coeff, type(coeff)) for mono, coeff in poly.terms.items()}


def same_parse(text, space):
    want = parse_outcome(parse_polynomial_reference, text, space)
    assert parse_outcome(parse_polynomial, text, space) == want, text


def test_parser_matches_reference_on_verify_rows(verify_tables):
    # the shipped fixtures and the seeded verify tables of seeds 1 to 3
    for spec, rows in verify_tables:
        space = parse_pair_spec(spec).variable_space()
        for _, text in rows:
            same_parse(text, space)


SIX = "(x1+x2+y1+y2+y3+y4)"
MALFORMED = [
    "",
    "2y1",
    "y5",
    "x3",
    "x0",
    "z1",
    "x",
    "1/0",
    "1/x1",
    "1/",
    "x1^",
    "x1^-2",
    "x1^\u00b2",
    "x1^y1",
    "(x1",
    "(x1]",
    "x1)",
    "x1 x2",
    "x1**2",
    "*x1",
    "+",
    "-",
    "x1+" + "9" * 5000,
    "x1+1/" + "9" * 5000,
    "x" + "1" * 5000,
    "(" * (MAX_NESTING + 1) + "y1" + ")" * (MAX_NESTING + 1),
    "-" * (MAX_NESTING + 2) + "y1",
    "(" * 1000 + "y1" + ")" * 1000,
    f"y1^{MAX_EXPONENT + 1}",
    "x1^64*x1^64*x1^64*x1^64",
    "x1^32*y1^32*y2",
    "0*x1^64*x1",
    "x1^64*0*x1",
    "(x1+1)^40*(y1+1)^40",
    "(x1*y1)^33",
    "(x1*x2*y1*y2)^16",
    "y1^8^9",
    "((x1+y1)^64)^64",
    "(x1+y1)^100000",
    "y1^" + "9" * 5000,
    f"{SIX}^24",
    f"{SIX}^8*{SIX}^8",
    f"{SIX}^64",
]


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_parser_matches_reference_on_malformed_input(text):
    # the same exception type and message (and the same value where the
    # text is in fact well formed), bound for bound
    same_parse(text, VariableSpace(2, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=POLYNOMIALS)
def test_parser_matches_reference_on_grammar_text(text):
    same_parse(text, VariableSpace(3, 3))


def test_print_deterministic():
    f = SP.y(4) - SP.y(1) + SP.x(2) * SP.y(2)
    assert str(f) == str(parse_polynomial(str(f), SP))


def test_substitute_to_y_target():
    sp = VariableSpace(1, 3)
    f = sp.y(1) * sp.y(2)
    got = f.substitute({1: (1, "y", 3), 2: (-1, "y", 3)})
    assert got == -(sp.y(3) ** 2)
