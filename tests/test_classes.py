from pathlib import Path

import pytest
from oracles import (
    first_disagreement_reference,
    propagate_all_reference,
    restriction_assignment,
)
from test_orbits import _pair_specs

from korbits.algebra import (
    VariableSpace,
    elementary_symmetric,
    parse_polynomial,
    poly_determinant,
    product,
)
from korbits.classes import (
    EquivariantClass,
    ambient_weyl,
    class_for_parameter,
    closed_orbit_class,
    equal_via_localization,
    first_disagreement,
    staircase_determinant,
    propagate,
    propagate_all,
    restrict_at,
    split_orbit_data,
    verify_rows,
    weight_product_oracle,
)
from korbits.errors import ContractViolation, InternalError
from korbits.orbits import (
    WeakEdge,
    WeakOrderGraph,
    build_weak_order_graph,
    closed_orbits,
    parse_orbit_parameter,
)
from korbits.pairs import parse_pair_spec
from korbits.weyl import (
    SignedPermutation,
    enumerate_group,
    restriction_map,
    sign_stats,
)


FIXTURES = Path(__file__).resolve().parents[1] / "src" / "korbits" / "fixtures"


def poly(pair, text):
    return parse_polynomial(text, pair.variable_space())


def fixed_points(pair):
    """The ambient Weyl group as ``SignedPermutation`` elements, in the
    order of ``ambient_weyl``'s image tuples."""
    return enumerate_group(*pair.ambient_family())


# -- closed orbit formulas -------------------------------------------------------


def test_closed_class_glpq():
    pair = parse_pair_spec("A:glpq:2,2")
    cls = closed_orbit_class(pair, parse_orbit_parameter(pair, "(+,-,+,-)"))
    assert cls.polynomial == poly(pair, "-(x1-y2)*(x1-y4)*(x2-y2)*(x2-y4)")


def test_closed_class_so_odd():
    pair = parse_pair_spec("A:so:3")
    cls = closed_orbit_class(pair, parse_orbit_parameter(pair, "(1,3)"))
    assert cls.polynomial == poly(pair, "-2*(y1+y2)*(y2+y3)")


def test_closed_class_type_b():
    pair = parse_pair_spec("B:oo:2,1")
    cls = closed_orbit_class(pair, parse_orbit_parameter(pair, "(+,+,-,-,-,+,+)"))
    assert cls.polynomial == poly(
        pair, "y1*y2*(x1-y3)*(x1+y3)*(x2-y3)*(x2+y3)"
    )


def test_closed_class_unequal_rank():
    pair = parse_pair_spec("D:oo-odd:1,2")
    cls = closed_orbit_class(pair, parse_orbit_parameter(pair, "(+,-,1,1,-,+)"))
    assert cls.polynomial == poly(pair, "y1*y2*(x1+y2)*(x1-y2)")
    cls = closed_orbit_class(pair, parse_orbit_parameter(pair, "(-,+,1,1,+,-)"))
    assert cls.polynomial == poly(pair, "-y1*y2*(x1+y1)*(x1-y1)")


def test_closed_class_rejects_non_closed():
    pair = parse_pair_spec("A:glpq:2,2")
    with pytest.raises(ContractViolation):
        closed_orbit_class(pair, parse_orbit_parameter(pair, "(1,1,2,2)"))


def test_closed_class_independent_of_representative():
    # rebuilding the formula from any fixed point of the orbit gives the
    # same polynomial; checked here through the membership oracle instead
    # of coset enumeration
    pair = parse_pair_spec("C:spsp:1,1")
    for param, rep in closed_orbits(pair):
        cls = closed_orbit_class(pair, param)
        base = {images: restrict_at(cls, images) for images in ambient_weyl(pair)}
        nonzero = {images for images, value in base.items() if not value.is_zero}
        members = {
            w.images
            for w in fixed_points(pair)
            if not weight_product_oracle(pair, param, w).is_zero
        }
        assert nonzero == members


# -- restriction -----------------------------------------------------------------


def test_restriction_values_at_split_candidates():
    pair = parse_pair_spec("A:so-even:4")
    sp = pair.variable_space()
    cls = EquivariantClass(pair, poly(pair, "2*(x1*x2+y1*y2)*(y1+y2)"))
    at_first = restrict_at(cls, (1, 2, 4, 3))
    assert at_first == 4 * sp.x(1) * sp.x(2) * (sp.x(1) + sp.x(2))
    at_second = restrict_at(cls, (1, 3, 4, 2))
    assert at_second.is_zero


def test_restriction_of_constant():
    pair = parse_pair_spec("B:oo:1,1")
    one = EquivariantClass(pair, pair.variable_space().one())
    for w in ambient_weyl(pair):
        assert restrict_at(one, w) == pair.variable_space().one()


def test_factored_and_expanded_restrictions_agree():
    pair = parse_pair_spec("A:so:5")
    for param, _ in closed_orbits(pair):
        cls = closed_orbit_class(pair, param)
        plain = EquivariantClass(pair, cls.polynomial)
        for w in list(ambient_weyl(pair))[::7]:
            assert restrict_at(cls, w) == restrict_at(plain, w)


# -- weight product oracle ---------------------------------------------------------


SMALL_PAIRS = [
    "A:glpq:1,1",
    "A:glpq:2,1",
    "A:so:3",
    "A:so-even:2",
    "A:sp:2",
    "B:oo:1,1",
    "C:spsp:1,1",
    "C:gl:2",
    "D:oo:1,1",
    "D:gl:2",
    "D:oo-odd:1,1",
]


@pytest.mark.parametrize("spec", SMALL_PAIRS)
def test_oracle_matches_restriction(spec):
    pair = parse_pair_spec(spec)
    for param, _ in closed_orbits(pair):
        cls = closed_orbit_class(pair, param)
        for w in fixed_points(pair):
            assert restrict_at(cls, w.images) == weight_product_oracle(pair, param, w)


def test_oracle_weight_values():
    pair = parse_pair_spec("A:so:3")
    sp = pair.variable_space()
    param, _ = closed_orbits(pair)[0]
    w0 = SignedPermutation("A", (3, 2, 1))
    assert weight_product_oracle(pair, param, w0) == 2 * sp.x(1) ** 2
    pair = parse_pair_spec("A:glpq:2,2")
    sp = pair.variable_space()
    param = parse_orbit_parameter(pair, "(+,+,-,-)")
    value = weight_product_oracle(pair, param, SignedPermutation.identity("A", 4))
    want = product(
        sp, [sp.x(i) - sp.x(j) for i in (1, 2) for j in (3, 4)]
    )
    assert value == want


def test_oracle_zero_off_orbit():
    pair = parse_pair_spec("A:sp:4")
    param, _ = closed_orbits(pair)[0]
    off = SignedPermutation("A", (2, 1, 3, 4))  # not a signed element
    assert weight_product_oracle(pair, param, off).is_zero


# -- propagation --------------------------------------------------------------------


PROPAGATION_PAIRS = [
    "A:glpq:2,2",
    "A:so:3",
    "A:so-even:4",
    "A:sp:4",
    "B:oo:1,1",
    "C:spsp:2,1",
    "C:gl:2",
    "D:oo:2,1",
    "D:gl:3",
    "D:oo-odd:1,2",
]


@pytest.mark.parametrize("spec", PROPAGATION_PAIRS)
def test_propagation_grading_and_dense(spec):
    pair = parse_pair_spec(spec)
    classes = propagate_all(pair)
    graph = build_weak_order_graph(pair)
    top_degree = {
        param: closed_orbit_class(pair, param).polynomial.homogeneous_degree()
        for param in graph.closed
    }
    degrees = set(top_degree.values())
    assert len(degrees) == 1
    top = degrees.pop()
    for param in graph.nodes:
        cls = classes[param]
        expected = top - graph.level[param]
        if expected == 0:
            assert cls.polynomial == pair.variable_space().one()
        else:
            assert cls.polynomial.homogeneous_degree() == expected
    assert classes[graph.dense].polynomial == pair.variable_space().one()


def assert_stream_matches_reference(pair):
    streamed = [(param, cls.polynomial) for param, cls in propagate(pair)]
    kept = propagate_all_reference(pair)
    nodes = build_weak_order_graph(pair).nodes
    assert len(kept) == len(streamed)
    assert streamed == [(param, kept[param].polynomial) for param in nodes]


@pytest.mark.parametrize("spec", list(_pair_specs(3)))
def test_stream_matches_all_classes_walk(spec):
    assert_stream_matches_reference(parse_pair_spec(spec))


def test_stream_matches_all_classes_walk_on_sweep_pairs(workloads):
    for spec in workloads.CLASSES_PAIRS:
        assert_stream_matches_reference(parse_pair_spec(spec))


def test_stream_drops_classes_after_their_last_raise():
    import collections
    import tracemalloc

    pair = parse_pair_spec("A:so-even:6")
    propagate_all(pair)  # the graph and the per-pair tables are cached from here on

    def peak(walk) -> int:
        tracemalloc.start()
        try:
            walk()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: collections.deque(propagate(pair), maxlen=0))
    kept = peak(lambda: propagate_all_reference(pair))
    assert streamed < kept / 2, (streamed, kept)


def test_sweep_classes_store_integral_coefficients_as_ints(workloads):
    # halving and summing Fractions must not leave Fraction(k, 1) behind
    for spec in workloads.CLASSES_PAIRS:
        for param, cls in propagate_all(parse_pair_spec(spec)).items():
            coeffs = cls.polynomial.terms.values()
            assert all(type(c) is int or c.denominator > 1 for c in coeffs), (spec, param)


def test_sp4_table():
    pair = parse_pair_spec("A:sp:4")
    classes = {str(k): v.polynomial for k, v in propagate_all(pair).items()}
    assert classes["(1,4)(2,3)"] == poly(pair, "(y1+y2)*(y1+y3)")
    assert classes["(1,3)(2,4)"] == poly(pair, "y1+y2")
    assert classes["(1,2)(3,4)"] == poly(pair, "1")


def test_so3_table_with_half_scaled_edges():
    pair = parse_pair_spec("A:so:3")
    classes = {str(k): v.polynomial for k, v in propagate_all(pair).items()}
    assert classes["(2,3)"] == poly(pair, "2*(y1+y2)")
    assert classes["(1,2)"] == poly(pair, "-2*(y2+y3)")
    assert classes["id"] == poly(pair, "1")


def test_cgl2_table():
    pair = parse_pair_spec("C:gl:2")
    classes = {str(k): v.polynomial for k, v in propagate_all(pair).items()}
    assert classes["(1,2,1,2)"] == poly(pair, "2*y1")
    assert classes["(1,2,2,1)"] == poly(pair, "1")


# -- localization equality -----------------------------------------------------------


def test_localization_equality_same_polynomial():
    pair = parse_pair_spec("A:sp:4")
    sp = pair.variable_space()
    a = EquivariantClass(pair, sp.y(1) + sp.y(2))
    b = EquivariantClass(pair, sp.y(1) + sp.y(2))
    assert equal_via_localization(a, b)


def test_localization_detects_scaling():
    pair = parse_pair_spec("A:sp:4")
    sp = pair.variable_space()
    a = EquivariantClass(pair, sp.y(1) + sp.y(2))
    b = EquivariantClass(pair, 2 * (sp.y(1) + sp.y(2)))
    assert not equal_via_localization(a, b)


def test_first_disagreement_names_a_witness():
    pair = parse_pair_spec("A:sp:4")
    sp = pair.variable_space()
    a = EquivariantClass(pair, sp.y(1) + sp.y(2))
    b = EquivariantClass(pair, 2 * (sp.y(1) + sp.y(2)))
    assert first_disagreement(a, a) is None
    w = first_disagreement(a, b)
    assert restrict_at(a, w) != restrict_at(b, w)
    earlier = []
    for v in ambient_weyl(pair):
        if v == w:
            break
        earlier.append(v)
    assert all(restrict_at(a, v) == restrict_at(b, v) for v in earlier)


def restrict_by_assignment(cls, w):
    """Reference restriction: substitute the assignment dict of w into the
    class, factor by factor when it has factors."""
    assignment = restriction_assignment(cls.pair, w)
    if cls.factors is None:
        return cls.polynomial.substitute(assignment)
    space = cls.pair.variable_space()
    return product(space, (factor.substitute(assignment) for factor in cls.factors))


def first_disagreement_two_sided(c1, c2):
    """Reference for ``first_disagreement``: restrict both classes at every
    fixed point and compare."""
    if c1.polynomial == c2.polynomial:
        return None
    for w in fixed_points(c1.pair):
        if restrict_by_assignment(c1, w) != restrict_by_assignment(c2, w):
            return w.images
    return None


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


@pytest.mark.parametrize("spec", RANK_TWO_PAIRS + ["A:sp:6"])
def test_first_disagreement_matches_two_sided_reference(spec, workloads):
    # the difference restricted once per fixed point finds the same first
    # witness as restricting both classes.  The benchmark's W-invariant I
    # restricts to zero everywhere, so f + m*I equals f; x1^d restricts to
    # itself, so f + c*x1^d does not.  Closed orbits keep their factored
    # classes (C:gl and D:gl build theirs as one determinant).
    pair = parse_pair_spec(spec)
    space = pair.variable_space()
    invariant = poly(pair, workloads._invariant_text(restriction_map(pair)))
    multipliers = [space.one(), space.x(1), space.x(1) * space.y(space.y_count)]
    classes = propagate_all(pair)
    closed = [classes[param] for param, _ in closed_orbits(pair)]
    if not spec.startswith(("C:gl", "D:gl")):
        assert all(cls.factors is not None for cls in closed)
    for k, param in enumerate(sorted(classes, key=lambda p: p.sort_key())):
        cls = classes[param]
        degree = max(cls.polynomial.total_degree(), 1)
        shifted = cls.polynomial + multipliers[k % 3] * invariant
        wrong = cls.polynomial + (-1) ** k * (k % 3 + 1) * space.x(1) ** degree
        for other, equal in ((shifted, True), (wrong, False)):
            other = EquivariantClass(pair, other)
            w = first_disagreement(cls, other)
            assert w == first_disagreement_two_sided(cls, other), (str(param), equal)
            assert (w is None) == equal, (str(param), equal)
    for a in closed:
        for b in closed:
            assert first_disagreement(a, b) == first_disagreement_two_sided(a, b)


def test_walk_matches_reference_walk_on_verify_tables(verify_tables):
    # every row of the shipped fixtures and of the seeded verify tables, and
    # each shipped row plus y1 - x1, which restricts to zero exactly where
    # y1 goes to x1: first_disagreement names the reference walk's fixed
    # point, and verify_rows' one walk per table gives the same verdicts
    shipped = len(list(FIXTURES.glob("*.txt")))
    for index, (spec, rows) in enumerate(verify_tables):
        pair = parse_pair_spec(spec)
        if index < shipped:
            rows = rows + [(param, f"({text})+y1-x1") for param, text in rows]
        classes = propagate_all(pair)
        want = []
        for param, text in rows:
            computed = class_for_parameter(pair, classes, param)
            given = EquivariantClass(pair, poly(pair, text))
            w = first_disagreement_reference(computed, given)
            assert first_disagreement(computed, given) == w, (spec, param, text)
            want.append((param, w is None))
        assert verify_rows(pair, rows) == want, spec
        if index < shipped:
            assert not any(ok for _, ok in want[len(rows) // 2 :]), spec


def test_localization_identifies_ideal_shifts():
    # the full y-sum restricts to zero at every fixed point of the
    # symplectic pair, so adding it does not change the class
    pair = parse_pair_spec("A:sp:4")
    sp = pair.variable_space()
    shift = sp.y(1) + sp.y(2) + sp.y(3) + sp.y(4)
    a = EquivariantClass(pair, sp.y(1) + sp.y(2))
    b = EquivariantClass(pair, sp.y(1) + sp.y(2) + shift)
    assert a.polynomial != b.polynomial
    assert equal_via_localization(a, b)


def test_zero_class_detection():
    pair = parse_pair_spec("A:sp:4")
    sp = pair.variable_space()
    vanishing = EquivariantClass(pair, sp.y(1) + sp.y(2) + sp.y(3) + sp.y(4))
    assert equal_via_localization(vanishing, EquivariantClass(pair, sp.zero()))


# -- determinant identities ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_determinant_sign_specialization(n):
    import itertools

    sp = VariableSpace(n, n)
    target = (
        sp.const(2 ** n)
        * product(sp, (sp.x(i) for i in range(1, n + 1)))
        * product(
            sp,
            (
                sp.x(i) + sp.x(j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            ),
        )
    )
    delta = staircase_determinant(sp, n, half=False)
    for signs in itertools.product((1, -1), repeat=n):
        value = delta.substitute(
            {j: (signs[j - 1], "x", j) for j in range(1, n + 1)}
        )
        if all(s == 1 for s in signs):
            assert value == target
        else:
            assert value.is_zero


@pytest.mark.parametrize("n", [2, 3])
def test_half_determinant_sign_specialization(n):
    # the identity holds over sign vectors with an even number of -1s,
    # which is all the even orthogonal Weyl group provides (odd vectors
    # genuinely give nonzero values, e.g. x1 at n=2 with signs (1,-1))
    import itertools

    sp = VariableSpace(n, n)
    target = product(
        sp,
        (
            sp.x(i) + sp.x(j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ),
    )
    delta = staircase_determinant(sp, n, half=True)
    for signs in itertools.product((1, -1), repeat=n):
        if signs.count(-1) % 2:
            continue
        value = delta.substitute(
            {j: (signs[j - 1], "x", j) for j in range(1, n + 1)}
        )
        if all(s == 1 for s in signs):
            assert value == target
        else:
            assert value.is_zero


def test_gl_determinant_rows_match_worked_expansions():
    pair = parse_pair_spec("D:gl:3")
    classes = {str(k): v.polynomial for k, v in propagate_all(pair).items()}
    first = poly(
        pair,
        "1/4*(x1*x2+x1*x3+x2*x3+y1*y2+y1*y3+y2*y3)*(x1+x2+x3+y1+y2+y3)"
        "-1/2*(x1*x2*x3+y1*y2*y3)",
    )
    assert classes["(+,+,+,-,-,-)"] == first
    second = poly(
        pair,
        "-1/4*(x1*x2+x1*x3+x2*x3+y1*y2-y1*y3-y2*y3)*(x1+x2+x3-y1-y2+y3)"
        "+1/2*(x1*x2*x3+y1*y2*y3)",
    )
    assert classes["(-,-,+,-,+,+)"] == second


def per_orbit_staircase(space, n, w, half):
    """Reference general-linear closed class: the staircase determinant
    expanded afresh at w, its c_k built from the signed y's of w^{-1}."""
    xs = [space.x(i) for i in range(1, n + 1)]
    ys = [space.y(v) if v > 0 else -space.y(-v) for v in w.inverse().images]

    def c(k):
        if k < 0:
            return space.zero()
        value = elementary_symmetric(k, xs, space) + elementary_symmetric(k, ys, space)
        return value / 2 if half else value

    size = n - 1 if half else n
    if size == 0:
        return space.one()
    top = n if half else n + 1
    rows = range(1, size + 1)
    det = poly_determinant([[c(top + j - 2 * i) for j in rows] for i in rows])
    _, count, shift = sign_stats(w)
    return (-1) ** (shift if half else count + shift) * det


@pytest.mark.parametrize("spec", ["C:gl:2", "C:gl:3", "C:gl:4", "D:gl:2", "D:gl:3", "D:gl:4"])
def test_gl_closed_classes_match_per_orbit_determinant(spec):
    pair = parse_pair_spec(spec)
    half = pair.kind.ambient == "D"
    space = pair.variable_space()
    for param, rep in closed_orbits(pair):
        want = per_orbit_staircase(space, pair.n, rep, half)
        assert closed_orbit_class(pair, param).polynomial == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_half_staircase_over_integers_matches_halved_entries(n):
    # the integer expansion divided once by 2^(n-1) against the expansion
    # of the halved entries, coefficient types included
    space = parse_pair_spec(f"D:gl:{n}").variable_space()
    want = per_orbit_staircase(space, n, SignedPermutation.identity("D", n), half=True)
    got = staircase_determinant(space, n, half=True)
    assert got == want
    assert {m: type(c) for m, c in got.terms.items()} == {m: type(c) for m, c in want.terms.items()}


def test_propagate_all_expands_one_determinant_per_pair(monkeypatch):
    import korbits.classes

    staircase_determinant.cache_clear()
    calls = []

    def counted(entries):
        calls.append(len(entries))
        return poly_determinant(entries)

    monkeypatch.setattr(korbits.classes, "poly_determinant", counted)
    pair = parse_pair_spec("C:gl:4")
    propagate_all(pair)
    assert calls == [4] and len(closed_orbits(pair)) > 1


# -- split orbit machinery ---------------------------------------------------------


def test_even_orthogonal_union_matches_component_sum():
    pair = parse_pair_spec("A:so-even:4")
    classes = propagate_all(pair)
    plus = parse_orbit_parameter(pair, "+(1,4)(2,3)")
    minus = parse_orbit_parameter(pair, "-(1,4)(2,3)")
    union = classes[plus].polynomial + classes[minus].polynomial
    assert union == poly(pair, "4*y1*y2*(y1+y2)*(y1+y3)")


def test_verify_rows_flags_scaled_class():
    pair = parse_pair_spec("A:sp:4")
    rows = [("(1,3)(2,4)", "2*y1+2*y2")]
    results = verify_rows(pair, rows)
    assert results == [("(1,3)(2,4)", False)]
    good = verify_rows(pair, [("(1,3)(2,4)", "y1+y2")])
    assert good == [("(1,3)(2,4)", True)]


def test_closed_class_same_from_every_member_fixed_point():
    # rebuilding the formula from each fixed point of the orbit yields the
    # identical polynomial for the member-parameterized formulas
    for spec in ("A:glpq:2,1", "B:oo:1,1", "C:spsp:1,1", "D:oo:1,1", "C:gl:2", "D:gl:2"):
        pair = parse_pair_spec(spec)
        for param, _ in closed_orbits(pair):
            base = closed_orbit_class(pair, param).polynomial
            members = [
                w
                for w in fixed_points(pair)
                if not weight_product_oracle(pair, param, w).is_zero
            ]
            assert members
            for w in members:
                rebuilt = closed_orbit_class(pair, param, rep=w).polynomial
                assert rebuilt == base, f"{spec} {param} at {w.images}"


def test_closed_class_rejects_foreign_representative():
    pair = parse_pair_spec("A:glpq:2,2")
    closed = closed_orbits(pair)
    first_param = closed[0][0]
    other_rep = closed[1][1]
    with pytest.raises(ContractViolation):
        closed_orbit_class(pair, first_param, rep=other_rep)


def test_rank_zero_group_conventions():
    from korbits.weyl import enumerate_group, group_order

    for family in ("A", "BC", "D"):
        assert group_order(family, 0) == 1
        elements = list(enumerate_group(family, 0))
        assert len(elements) == 1 and elements[0].is_identity()


def test_membership_predicate_matches_coset_enumeration():
    # the structural member test agrees with explicit subgroup cosets
    from korbits.classes import _closed_member
    from korbits.weyl import enumerate_group

    cases = {
        "A:glpq:2,1": lambda pair, s: all(
            (s.images[i - 1] <= pair.p) == (i <= pair.p) for i in range(1, pair.n + 1)
        ),
        "C:spsp:1,1": lambda pair, s: all(
            (abs(s.images[i - 1]) <= pair.p) == (i <= pair.p)
            for i in range(1, pair.n + 1)
        ),
        "C:gl:2": lambda pair, s: all(v > 0 for v in s.images),
        "D:gl:2": lambda pair, s: all(v > 0 for v in s.images),
    }
    for spec, in_subgroup in cases.items():
        pair = parse_pair_spec(spec)
        family, size = pair.ambient_family()
        for param, rep in closed_orbits(pair):
            coset = {
                (s * rep).images
                for s in enumerate_group(family, size)
                if in_subgroup(pair, s)
            }
            for w in enumerate_group(family, size):
                assert _closed_member(pair, param, w) == (w.images in coset), (
                    spec,
                    str(param),
                    w.images,
                )


def test_closed_orbits_contain_subgroup_weyl_many_fixed_points():
    import math

    expected = {
        "A:glpq:2,1": math.factorial(2) * math.factorial(1),
        "A:so:5": (2 ** 2) * math.factorial(2),
        "A:sp:4": (2 ** 2) * math.factorial(2),
        "B:oo:2,1": (2 ** 3) * math.factorial(2) * math.factorial(1),
        "C:spsp:2,1": (2 ** 3) * math.factorial(2) * math.factorial(1),
        "C:gl:2": math.factorial(2),
        "D:oo:2,1": (2 ** 2) * math.factorial(2) * math.factorial(1),
        "D:gl:3": math.factorial(3),
        "D:oo-odd:1,2": (2 ** 2) * math.factorial(1) * math.factorial(1),
    }
    for spec, count in expected.items():
        pair = parse_pair_spec(spec)
        for param, _ in closed_orbits(pair):
            members = sum(
                1
                for w in fixed_points(pair)
                if not weight_product_oracle(pair, param, w).is_zero
            )
            assert members == count, (spec, str(param), members)


def test_split_components_halve_the_fixed_points():
    import math

    pair = parse_pair_spec("A:so-even:4")
    for param, _ in closed_orbits(pair):
        members = sum(
            1
            for w in fixed_points(pair)
            if not weight_product_oracle(pair, param, w).is_zero
        )
        assert members == (2 ** 1) * math.factorial(2)


@pytest.mark.parametrize("size", [2, 4, 6])
def test_tag_rule_matches_split_oracle(size):
    pair = parse_pair_spec(f"A:so-even:{size}")
    graph = build_weak_order_graph(pair)
    oracle_graph, oracle_classes = split_orbit_data(pair)
    assert graph.nodes == oracle_graph.nodes
    assert graph.edges == oracle_graph.edges
    assert graph.level == oracle_graph.level
    classes = propagate_all(pair)
    assert {p: c.polynomial for p, c in classes.items()} == {
        p: c.polynomial for p, c in oracle_classes.items()
    }


def test_graph_needs_no_classes(monkeypatch):
    import korbits.algebra
    import korbits.classes

    def refuse(*args):
        raise AssertionError("the weak order graph computed a class")

    monkeypatch.setattr(korbits.algebra, "divided_difference", refuse)
    monkeypatch.setattr(korbits.classes, "divided_difference", refuse)
    build_weak_order_graph.cache_clear()
    graph = build_weak_order_graph(parse_pair_spec("A:so-even:6"))
    assert len(graph.nodes) == 91


def test_path_disagreement_names_pair_edge_and_fixed_point(monkeypatch):
    import korbits.classes

    pair = parse_pair_spec("A:glpq:2,2")
    good = propagate_all(pair)
    edges = build_weak_order_graph(pair).edges
    seen = set()
    for index, bad in enumerate(edges):
        if bad.target in seen:
            break
        seen.add(bad.target)
    else:
        raise AssertionError("no orbit is reached by two edges")
    original = korbits.classes.divided_difference
    calls = []

    def doubled_on_bad_edge(f, act):
        result = original(f, act)
        calls.append(None)
        return 2 * result if len(calls) == index + 1 else result

    monkeypatch.setattr(korbits.classes, "divided_difference", doubled_on_bad_edge)
    with pytest.raises(InternalError) as failure:
        propagate_all(pair)
    stored = good[bad.target]
    w = first_disagreement(stored, EquivariantClass(pair, 2 * stored.polynomial))
    message = str(failure.value)
    for field in (
        "A:glpq:2,2",
        f"{bad.source} -> {bad.target}",
        f"alpha_{bad.root_index}",
        f"degree {bad.degree}",
        f"w = {w}",
    ):
        assert field in message


def test_walk_refuses_an_edge_into_a_yielded_class(monkeypatch, capsys):
    import korbits.classes
    from korbits.cli import main

    pair = parse_pair_spec("A:glpq:2,2")
    graph = build_weak_order_graph(pair)
    first, second = graph.nodes[:2]
    edges = list(graph.edges)
    index = next(k for k, edge in enumerate(edges) if edge.source == second)
    late = WeakEdge(second, first, edges[index].root_index, edges[index].degree)
    edges[index] = late
    bad = WeakOrderGraph(pair, graph.nodes, tuple(edges), graph.closed, graph.dense, graph.level)
    monkeypatch.setattr(korbits.classes, "build_weak_order_graph", lambda _: bad)
    with pytest.raises(InternalError) as failure:
        list(propagate(pair))
    message = str(failure.value)
    want = f"A:glpq:2,2: edge {second} -> {first} by alpha_{late.root_index} (degree {late.degree})"
    assert message.startswith(want) and f"reaches {first}, whose class" in message
    assert main(["classes", "A:glpq:2,2", "--format", "machine"]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


@pytest.mark.parametrize("value, count", [(1, 2), (0, 0)])
def test_split_component_errors_name_pair_and_raise(monkeypatch, value, count):
    import korbits.classes

    pair = parse_pair_spec("A:so-even:4")
    space = pair.variable_space()
    monkeypatch.setattr(korbits.classes, "restrict_at", lambda cls, images: space.const(value))
    with pytest.raises(InternalError) as failure:
        split_orbit_data(pair)
    message = str(failure.value)
    assert message.startswith("A:so-even:4: raising ") and " by alpha_" in message
    assert f", {count} of the two components of " in message


def test_split_walk_disagreement_names_pair_edge_and_fixed_point(monkeypatch):
    import korbits.classes

    pair = parse_pair_spec("A:so-even:4")
    graph = build_weak_order_graph(pair)
    good = propagate_all(pair)
    into = {}
    for edge in graph.edges:
        into.setdefault(edge.target, []).append(edge)
    target, edges = next((t, es) for t, es in into.items() if len(es) > 1)
    doubled = edges[-1]
    source_poly = good[doubled.source].polynomial
    action = pair.root_action(doubled.root_index)
    original = korbits.classes.divided_difference

    def doubled_on_one_edge(f, act):
        result = original(f, act)
        return 2 * result if f == source_poly and act == action else result

    monkeypatch.setattr(korbits.classes, "divided_difference", doubled_on_one_edge)
    with pytest.raises(InternalError) as failure:
        split_orbit_data(pair)
    stored = good[target]
    w = first_disagreement(stored, EquivariantClass(pair, 2 * stored.polynomial))
    message = str(failure.value)
    assert message.startswith(f"A:so-even:4: paths into {target} disagree under localization")
    assert any(f"edge {e.source} -> {e.target} by alpha_{e.root_index}" in message for e in edges)
    assert message.endswith(f"at fixed point w = {w}")
