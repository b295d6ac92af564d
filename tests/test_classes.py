import ast
import re
from pathlib import Path

import pytest
from oracles import (
    closed_class_reference,
    closed_gl_reference,
    compose,
    enumerate_group,
    first_disagreement,
    first_disagreement_reference,
    identity,
    inverse,
    is_identity,
    order_key,
    propagate_all_reference,
    restriction_assignment,
    sign_stats,
    weight_product_oracle,
)
from test_orbits import _pair_specs

from korbits.algebra import (
    VariableSpace,
    elementary_symmetric,
    parse_polynomial,
    poly_determinant,
    product,
    simple_root_action,
)
from korbits.classes import (
    EquivariantClass,
    ambient_weyl,
    closed_orbit_class,
    closed_orbits,
    equal_via_localization,
    parameter_classes,
    staircase_determinant,
    propagate,
    propagate_all,
    restrict_at,
    settle,
    signed_targets,
    split_orbit_data,
    verify_rows,
)
from korbits.clans import MINUS, PLUS
from korbits.cli import main
from korbits.errors import ContractViolation, InternalError
from korbits.orbits import (
    WeakEdge,
    WeakOrderGraph,
    build_weak_order_graph,
    enumerate_orbits,
    parse_orbit_parameter,
)
from korbits.pairs import parse_pair_spec
from korbits.weyl import SignedPermutation, restriction_map


FIXTURES = Path(__file__).resolve().parents[1] / "src" / "korbits" / "fixtures"


def poly(pair, text):
    return parse_polynomial(text, pair.variable_space())


def fixed_points(pair):
    """The ambient Weyl group as ``SignedPermutation`` elements, in the
    order of ``ambient_weyl``'s image tuples."""
    return enumerate_group(*pair.ambient)


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
    # the weight-product oracle refuses them too, even at a fixed point of
    # a closed orbit
    for spec in _pair_specs(2):
        pair = parse_pair_spec(spec)
        closed = dict(closed_orbits(pair))
        rep = next(iter(closed.values()))
        for param in enumerate_orbits(pair):
            if param in closed:
                continue
            with pytest.raises(ContractViolation):
                closed_orbit_class(pair, param)
            with pytest.raises(ContractViolation):
                weight_product_oracle(pair, param, rep)


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


@pytest.mark.parametrize(
    "spec,images",
    [
        ("C:gl:2", (3, 1)),
        ("C:gl:2", (1, 1)),
        ("C:gl:2", (1, 2, 3)),
        ("C:gl:2", (2,)),
        ("D:oo:1,1", (1, -2)),  # an odd number of sign changes
    ],
)
def test_restriction_refuses_non_elements(spec, images):
    pair = parse_pair_spec(spec)
    cls = closed_orbit_class(pair, closed_orbits(pair)[0][0])
    with pytest.raises(ContractViolation):
        restrict_at(cls, images)


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
    value = weight_product_oracle(pair, param, identity("A", 4))
    want = product(
        sp, [sp.x(i) - sp.x(j) for i in (1, 2) for j in (3, 4)]
    )
    assert value == want


def test_oracle_zero_off_orbit():
    pair = parse_pair_spec("A:sp:4")
    param, _ = closed_orbits(pair)[0]
    off = SignedPermutation("A", (2, 1, 3, 4))  # not a signed element
    assert weight_product_oracle(pair, param, off).is_zero


def test_oracle_zero_weight_names_pair_orbit_and_fixed_point(monkeypatch):
    import korbits.classes

    # a restriction that kills every y leaves every normal weight zero
    monkeypatch.setattr(
        korbits.classes, "restriction_map", lambda pair: [None] * pair.variable_space().y_count
    )
    pair = parse_pair_spec("A:glpq:2,1")
    param, rep = closed_orbits(pair)[0]
    with pytest.raises(InternalError) as failure:
        weight_product_oracle(pair, param, rep)
    assert str(failure.value) == (
        f"A:glpq:2,1: zero normal weight at the fixed point w = {rep.images},"
        f" supposedly in the closed orbit {param}"
    )


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
    other = parse_pair_spec("A:so-even:4")
    with pytest.raises(ContractViolation, match="classes belong to different pairs"):
        equal_via_localization(a, EquivariantClass(other, other.variable_space().one()))


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
    for k, param in enumerate(sorted(classes, key=order_key)):
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
        params = [parse_orbit_parameter(pair, param, allow_union=True) for param, _ in rows]
        want = []
        for (param, text), computed in zip(rows, parameter_classes(pair, params)):
            given = EquivariantClass(pair, poly(pair, text))
            w = first_disagreement_reference(computed, given)
            assert first_disagreement(computed, given) == w, (spec, param, text)
            want.append((param, w is None))
        assert verify_rows(pair, rows) == want, spec
        if index < shipped:
            assert not any(ok for _, ok in want[len(rows) // 2 :]), spec


@pytest.mark.parametrize(
    "spec", ["D:oo-odd:1,2", "D:oo-odd:2,2", "D:oo-odd:2,3", "D:oo-odd:3,2", "D:oo-odd:1,4"]
)
def test_kernel_certificate_keeps_every_path_check_witness(monkeypatch, spec):
    # one torus coordinate of D:oo-odd restricts to zero, so first_disagreement
    # drops the multiples of y1*...*ym before its walk: at every later arrival
    # of the reference walk it still names the reference's fixed point
    import oracles

    localized = []

    def compared(stored, candidate):
        w = first_disagreement(stored, candidate)
        assert w == first_disagreement_reference(stored, candidate), (spec, str(stored))
        localized.append(stored.polynomial != candidate.polynomial)
        return w

    monkeypatch.setattr(oracles, "first_disagreement", compared)
    propagate_all_reference(parse_pair_spec(spec))
    assert any(localized)


@pytest.mark.parametrize("spec", ["A:so:5", "D:oo-odd:1,2", "A:glpq:2,2"])
def test_kernel_certificate_only_where_a_coordinate_restricts_to_zero(spec):
    # y1*...*ym restricts to zero at every fixed point exactly when the plan
    # table holds a 0 (A:so, D:oo-odd; not A:glpq).  A multiple of it plus
    # one term that does not vanish, y2*...*ym*x1, names the reference's witness
    pair = parse_pair_spec(spec)
    space = pair.variable_space()
    kernel = 0 in signed_targets(pair)
    assert kernel == (spec != "A:glpq:2,2")
    all_but_y1 = product(space, (space.y(j) for j in range(2, space.y_count + 1)))
    multiple = space.y(1) * all_but_y1 * (space.x(1) + space.y(2))
    zero = EquivariantClass(pair, space.zero())
    for poly, vanishes in ((multiple, kernel), (multiple + space.x(1) * all_but_y1, False)):
        cls = EquivariantClass(pair, poly)
        w = first_disagreement_reference(cls, zero)
        assert first_disagreement(cls, zero) == w and (w is None) == vanishes, (spec, str(poly))


@pytest.fixture
def walks(monkeypatch):
    """The pair of every walk over the fixed points: each call of
    ``classes.ambient_weyl``, read through the module as ``settle`` reads it."""
    import korbits.classes

    calls = []
    original = korbits.classes.ambient_weyl

    def counted(pair):
        calls.append(pair.spec_string())
        return original(pair)

    monkeypatch.setattr(korbits.classes, "ambient_weyl", counted)
    return calls


def test_propagation_settles_every_check_without_a_walk(walks, workloads):
    # every path check and dense check of the benchmark's class pairs ends on
    # the literal rung, but for 3 on D:oo-odd:2,2 and 35 on D:oo-odd:2,3 that
    # the kernel certificate settles; none needs the walk
    for spec in workloads.CLASSES_PAIRS + ("D:oo-odd:2,3",):
        propagate_all(parse_pair_spec(spec))
        assert walks == [], spec


def test_verify_walks_once_per_seeded_table_and_never_on_fixtures(walks, verify_tables):
    # the shipped fixtures settle without a walk and each seeded table in
    # one; every witness is the reference walk's first disagreement
    shipped = len(list(FIXTURES.glob("*.txt")))
    for index, (spec, rows) in enumerate(verify_tables):
        pair = parse_pair_spec(spec)
        walks.clear()
        verify_rows(pair, rows)
        assert len(walks) == (index >= shipped), (spec, walks)
        params = [parse_orbit_parameter(pair, param, allow_union=True) for param, _ in rows]
        classes = parameter_classes(pair, params)
        given = [EquivariantClass(pair, poly(pair, text)) for _, text in rows]
        witnesses = settle(pair, [(a.polynomial, b.polynomial) for a, b in zip(classes, given)])
        for (param, _), a, b, w in zip(rows, classes, given, witnesses):
            assert w == first_disagreement_reference(a, b), (spec, param)


# the calls that walk the fixed points, and the only definitions that make one:
# the ladder's last rung, the walk itself, and the closed orbits' first fixed points
_WALKS = {"ambient_weyl", "group_images"}
_WALKERS = {("classes.py", "settle"), ("classes.py", "ambient_weyl"), ("classes.py", "closed_orbits")}


def _walk_calls(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, top-level definition) of every call of a walk in the sources."""
    found = set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) in _WALKS:
                    found.add((name, getattr(top, "name", "<module>")))
    return found


def test_fixed_points_are_walked_only_by_settle():
    # every class comparison goes through settle's ladder, so a new rung
    # serves every caller; no other library code walks the fixed points
    library = Path(__file__).resolve().parents[1] / "src" / "korbits"
    assert _walk_calls({path.name: path.read_text() for path in library.glob("*.py")}) == _WALKERS


def test_walk_guard_catches_a_second_walk():
    source = (FIXTURES.parent / "classes.py").read_text()
    line = "    classes = parameter_classes(pair, params)\n"
    assert source.count(line) == 1
    second_walk = source.replace(line, line + "    list(ambient_weyl(pair))\n")
    hits = _walk_calls({"classes.py": second_walk}) - _WALKERS
    assert hits == {("classes.py", "verify_rows")}
    # a definition, a docstring and a rebinding name the walk but make none
    miss = (
        "def group_images(family, n):\n"
        '    """The order of ``ambient_weyl(pair)``."""\n'
        "    return family\n\n\n"
        "classes.ambient_weyl = counted\n"
    )
    assert _walk_calls({"weyl.py": miss}) == set()

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
    ys = [space.y(v) if v > 0 else -space.y(-v) for v in inverse(w).images]

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
    half = pair.kind.roots == "D"
    space = pair.variable_space()
    for param, rep in closed_orbits(pair):
        got = closed_orbit_class(pair, param).polynomial
        assert got == per_orbit_staircase(space, pair.n, rep, half)
        # and the former relabelling of the cached staircase, coefficient types included
        relabelled = closed_gl_reference(pair, rep)
        assert got == relabelled
        assert {m: type(c) for m, c in got.terms.items()} == {
            m: type(c) for m, c in relabelled.terms.items()
        }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_half_staircase_over_integers_matches_halved_entries(n):
    # the integer expansion divided once by 2^(n-1) against the expansion
    # of the halved entries, coefficient types included
    space = parse_pair_spec(f"D:gl:{n}").variable_space()
    want = per_orbit_staircase(space, n, identity("D", n), half=True)
    got = staircase_determinant(space, n, half=True)
    assert got == want
    assert {m: type(c) for m, c in got.terms.items()} == {m: type(c) for m, c in want.terms.items()}


def test_propagate_all_expands_one_determinant_per_pair(monkeypatch):
    import korbits.classes

    staircase_determinant.cache_clear()
    korbits.classes._staircase_terms.cache_clear()
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


def _same_terms(got, want):
    return got.terms == want.terms and {m: type(c) for m, c in got.terms.items()} == {
        m: type(c) for m, c in want.terms.items()
    }


@pytest.mark.parametrize(
    "spec",
    list(_pair_specs(4))
    + ["C:gl:5", "D:gl:5", "A:glpq:3,3", "D:oo:3,3", "B:oo:3,2", "D:oo-odd:3,3", "C:spsp:3,2"],
)
def test_closed_class_matches_reference_at_stored_representative(spec):
    # the formulas read off the orbit parameter against the former ones,
    # read off the stored fixed point through l_p, Neg and f: the same
    # term dicts, coefficient types included
    pair = parse_pair_spec(spec)
    for param, rep in closed_orbits(pair):
        got = closed_orbit_class(pair, param).polynomial
        assert _same_terms(got, closed_class_reference(pair, param, rep)), f"{spec} {param}"


def test_closed_class_same_from_every_member_fixed_point():
    # the reference formula rebuilt at each fixed point of the orbit whose
    # statistics it accepts gives the class; the stored one is always accepted
    from korbits.classes import _closed_member

    for spec in _pair_specs(2):
        pair = parse_pair_spec(spec)
        for param, rep in closed_orbits(pair):
            got = closed_orbit_class(pair, param).polynomial
            accepted = []
            for w in fixed_points(pair):
                if not _closed_member(pair, param, w.images):
                    continue
                try:
                    want = closed_class_reference(pair, param, w)
                except ContractViolation:
                    continue
                assert _same_terms(got, want), f"{spec} {param} at {w.images}"
                accepted.append(w.images)
            assert rep.images in accepted


# planted faults: one closed class negated, or short of its last factor
# (doubled for the general-linear pairs, whose classes carry no factors)
FAULTS = {
    "negated": lambda cls: EquivariantClass(cls.pair, -cls.polynomial),
    "short": lambda cls: (
        EquivariantClass.from_factors(cls.pair, cls.factors[:-1])
        if cls.factors
        else EquivariantClass(cls.pair, 2 * cls.polynomial)
    ),
}


def _plant(monkeypatch, pair, fault):
    """Plant the fault in the pair's first closed class, through its
    closed-orbit rule; returns that orbit."""
    import korbits.classes

    rule = pair.kind.closed
    formula, member = korbits.classes._CLOSED_RULES[rule]
    first = closed_orbits(pair)[0][0]

    def faulty(pair, param, space):
        cls = formula(pair, param, space)
        return FAULTS[fault](cls) if param == first else cls

    monkeypatch.setitem(korbits.classes._CLOSED_RULES, rule, (faulty, member))
    return first


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize(
    "spec",
    ["A:glpq:2,2", "B:oo:1,1", "C:spsp:1,1", "C:gl:2", "D:oo:2,2", "D:gl:2", "D:oo-odd:1,2", "A:so-even:4"],
)
def test_planted_closed_class_fault_fails_the_walk(spec, fault, monkeypatch, capsys):
    _plant(monkeypatch, parse_pair_spec(spec), fault)
    assert main(["classes", spec, "--format", "machine"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(
        rf"internal error: {re.escape(spec)}: paths into \S+ disagree under localization:"
        r" edge \S+ -> \S+ by alpha_\d+ \(degree [12]\) differs from the stored class"
        r" at fixed point w = \(-?\d+(, -?\d+)*\)",
        lines[0],
    ), lines[0]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("spec", ["A:so:5", "A:so:7", "A:sp:4", "A:sp:6"])
def test_planted_fault_at_a_single_closed_orbit_fails_the_weight_products(
    spec, fault, monkeypatch, capsys
):
    # with one closed orbit every path starts from the same class, so the
    # walk's path checks cannot see it negated (nor, on A:sp:4, short of a
    # factor); the weight-product comparison of acceptance criterion 4 can,
    # and so can the walk's check that the dense orbit's class is 1, which
    # then makes the one error line
    pair = parse_pair_spec(spec)
    param = _plant(monkeypatch, pair, fault)
    cls = closed_orbit_class(pair, param)
    assert any(
        restrict_at(cls, w.images) != weight_product_oracle(pair, param, w)
        for w in fixed_points(pair)
    )
    assert main(["classes", spec, "--format", "machine"]) == 3
    lines = capsys.readouterr().err.splitlines()
    dense = re.escape(str(build_weak_order_graph(pair).dense))
    assert len(lines) == 1 and lines[0].startswith(f"internal error: {spec}: "), lines
    assert (fault == "short" and spec != "A:sp:4") or re.fullmatch(
        rf"internal error: {re.escape(spec)}: the class of the dense orbit {dense} is not 1:"
        r" it differs from 1 at fixed point w = \(-?\d+(, -?\d+)*\)",
        lines[0],
    ), lines[0]


@pytest.mark.parametrize("spec", ["C:spsp:1,1", "A:sp:4", "B:oo:1,1", "C:gl:2", "D:oo-odd:1,2"])
def test_planted_cover_degree_flip_fails_the_walk(spec, monkeypatch):
    # serve the walk a graph with one edge's degree flipped, for every edge;
    # a flip on the only edge into the dense orbit (C:spsp:1,1, A:sp:4) is
    # seen by the dense orbit's class alone
    import korbits.classes

    pair = parse_pair_spec(spec)
    graph = build_weak_order_graph(pair)
    for k, edge in enumerate(graph.edges):
        flipped = WeakEdge(edge.source, edge.target, edge.root_index, 3 - edge.degree)
        edges = graph.edges[:k] + (flipped,) + graph.edges[k + 1 :]
        served = WeakOrderGraph(graph.nodes, edges, graph.closed, graph.dense, graph.level)
        monkeypatch.setattr(korbits.classes, "build_weak_order_graph", lambda _pair: served)
        with pytest.raises(InternalError, match=re.escape(spec)):
            list(propagate(pair))


# planted broken clan moves, through the type A move rule at one window
BROKEN_MOVES = {
    "no complex raise at alpha_1": lambda kind, i: None if (kind, i) == ("complex", 1) else kind,
    "noncompact_I as complex": lambda kind, i: "complex" if kind == "noncompact_I" else kind,
}


@pytest.mark.parametrize("move", sorted(BROKEN_MOVES))
@pytest.mark.parametrize(
    "spec", ["A:glpq:2,2", "B:oo:2,1", "C:gl:3", "D:oo:2,2", "D:gl:3", "C:spsp:2,1"]
)
def test_planted_broken_clan_move_fails_classes(spec, move, monkeypatch, capsys):
    import korbits.orbits

    rule = korbits.orbits._adjacent_kind
    broken = BROKEN_MOVES[move]
    monkeypatch.setattr(
        korbits.orbits, "_adjacent_kind", lambda clan, i, j: broken(rule(clan, i, j), i)
    )
    build_weak_order_graph.cache_clear()
    try:
        code = main(["classes", spec, "--format", "machine"])
    finally:
        build_weak_order_graph.cache_clear()
    lines = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(lines) == 1
    assert lines[0].startswith("internal error: ") and spec in lines[0], lines[0]


def test_rank_zero_group_conventions():
    from korbits.weyl import group_order

    for family in ("A", "BC", "D"):
        assert group_order(family, 0) == 1
        elements = list(enumerate_group(family, 0))
        assert len(elements) == 1 and is_identity(elements[0])


def test_membership_predicate_matches_coset_enumeration():
    # the structural member test agrees with explicit subgroup cosets
    from korbits.classes import _closed_member

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
        family, size = pair.ambient
        for param, rep in closed_orbits(pair):
            coset = {
                compose(s, rep).images
                for s in enumerate_group(family, size)
                if in_subgroup(pair, s)
            }
            for w in enumerate_group(family, size):
                assert _closed_member(pair, param, w.images) == (w.images in coset), (
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
    classes = split_orbit_data(pair)
    assert list(classes) == list(build_weak_order_graph(pair).nodes)
    assert {p: c.polynomial for p, c in classes.items()} == {
        p: c.polynomial for p, c in propagate_all_reference(pair).items()
    }


@pytest.mark.parametrize("size", [4, 6])
def test_split_check_catches_a_flipped_tag(monkeypatch, size):
    import korbits.orbits
    from korbits.classes import _component_representatives
    from korbits.orbits import InvolutionOrbit, RootStatus

    original = korbits.orbits.classify_simple_root
    flip = {PLUS: MINUS, MINUS: PLUS}

    def flipped(pair, param, i):
        status = original(pair, param, i)
        if status.kind != "complex" or not status.target.component:
            return status
        target = status.target
        return RootStatus("complex", InvolutionOrbit(target.involution, flip[target.component]))

    spec = f"A:so-even:{size}"
    pair = parse_pair_spec(spec)
    graph = build_weak_order_graph(pair)
    # tagged orbits are reached by complex raises alone, so the flip swaps
    # the labels of the two components at every odd level; the first such
    # label in node order is the first the check reaches, a + component
    # that now carries the - component's class
    wrong = next(p for p in graph.nodes if p.component and graph.level[p] % 2)
    assert wrong.component == PLUS
    monkeypatch.setattr(korbits.orbits, "classify_simple_root", flipped)
    build_weak_order_graph.cache_clear()
    try:
        with pytest.raises(InternalError) as failure:
            split_orbit_data(pair)
    finally:
        build_weak_order_graph.cache_clear()
    rep = _component_representatives(wrong.involution, pair.n)[PLUS]
    assert str(failure.value) == (
        f"{spec}: the class of {wrong} restricts to zero at the + component's"
        f" representative w = {rep.images}"
    )


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
    bad = WeakOrderGraph(graph.nodes, tuple(edges), graph.closed, graph.dense, graph.level)
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
    # every restriction is the constant value: nonzero at count of the two
    # representatives
    monkeypatch.setattr(korbits.classes, "restrict_at", lambda cls, images: space.const(value))
    with pytest.raises(InternalError) as failure:
        split_orbit_data(pair)
    # the first tagged orbit is the closed + component, whose representative
    # is the identity and the other's the swap of the values 2, 3
    found, tag, rep = ("nonzero", MINUS, (1, 3, 2, 4)) if count else ("zero", PLUS, (1, 2, 3, 4))
    assert str(failure.value) == (
        f"A:so-even:4: the class of +(1,4)(2,3) restricts to {found} at the"
        f" {tag} component's representative w = {rep}"
    )


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
    action = simple_root_action(pair.variable_space(), pair.kind.roots, doubled.root_index)
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
