"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; pytest reports the
failures.  Everything is pinned: counts, fixture files, literal operator
outputs, and the randomized-law sample sizes.
"""

import random
import time
from fractions import Fraction

from oracles import enumerate_group, reflect, weight_product_oracle

from korbits.algebra import (
    VariableSpace,
    divided_difference,
    parse_polynomial,
    product,
    simple_root_action,
)
from korbits.classes import (
    EquivariantClass,
    closed_orbit_class,
    closed_orbits,
    staircase_determinant,
    parse_fixture,
    propagate_all,
    restrict_at,
    to_chern_basis,
    verify_rows,
)
from korbits.counting import count_report
from korbits.orbits import (
    InvolutionOrbit,
    build_weak_order_graph,
    enumerate_orbits,
    parse_orbit_parameter,
)
from korbits.pairs import SymmetricPair, parse_pair_spec
from korbits.weyl import SignedPermutation


def report(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS - {text}")


# -- 1: orbit counts ---------------------------------------------------------------

ORBIT_COUNTS = [
    ("A:glpq:2,2", 21),
    ("A:so:5", 26),
    ("A:so-even:4", 13),
    ("A:sp:4", 3),
    ("A:sp:6", 15),
    ("B:oo:2,1", 25),
    ("C:spsp:2,1", 9),
    ("C:gl:2", 11),
    ("D:oo:2,1", 12),
    ("D:gl:3", 10),
    ("D:oo-odd:1,2", 13),
]


def test_criterion_1_orbit_counts():
    for spec, want in ORBIT_COUNTS:
        got = len(enumerate_orbits(parse_pair_spec(spec)))
        assert got == want, f"{spec}: {got} != {want}"
    report(1, f"{len(ORBIT_COUNTS)} orbit counts exact")


# -- 2: table reproduction ----------------------------------------------------------

FIXTURES = [
    "a-glpq-2-2.txt",
    "a-so-3.txt",
    "a-so-5.txt",
    "a-o-4.txt",
    "a-so-even-4.txt",
    "a-sp-4.txt",
    "a-sp-6.txt",
    "b-oo-2-1.txt",
    "c-spsp-2-1.txt",
    "c-gl-2.txt",
    "d-oo-2-1.txt",
    "d-gl-3.txt",
    "d-oo-odd-1-2.txt",
]


def test_criterion_2_table_reproduction():
    from importlib import resources

    start = time.time()
    total = 0
    for name in FIXTURES:
        text = resources.files("korbits").joinpath("fixtures", name).read_text()
        pair_spec, rows = parse_fixture(text)
        pair = parse_pair_spec(pair_spec)
        results = verify_rows(pair, rows)
        bad = [param for param, ok in results if not ok]
        assert not bad, f"{name}: failing rows {bad}"
        total += len(rows)
    elapsed = time.time() - start
    assert elapsed < 10, f"table verification took {elapsed:.1f}s"
    report(2, f"13 fixtures, {total} rows, localization-equal in {elapsed:.1f}s")


# -- 3: literal reproduction ---------------------------------------------------------


def test_criterion_3_literal_operator_outputs():
    # flag-variety raise of the bottom split cell
    sp = VariableSpace(2, 4)
    bottom = product(sp, [sp.x(i) - sp.y(j) for i in (1, 2) for j in (3, 4)])
    raised = divided_difference(bottom, simple_root_action(sp, "A", 2))
    assert raised == parse_polynomial("(x1-y4)*(x2-y4)*(x1+x2-y2-y3)", sp)

    # odd orthogonal rank-one chain down to the dense orbit
    sp = VariableSpace(1, 3)
    q = parse_polynomial("-2*(y1+y2)*(y2+y3)", sp)
    a1 = simple_root_action(sp, "A", 1)
    a2 = simple_root_action(sp, "A", 2)
    first = divided_difference(q, a1)
    assert first == parse_polynomial("2*(y1+y2)", sp)
    second = divided_difference(q, a2)
    assert second == parse_polynomial("-2*(y2+y3)", sp)
    assert divided_difference(first, a2) / 2 == sp.one()
    assert divided_difference(second, a1) / 2 == sp.one()

    # symplectic chain
    sp = VariableSpace(2, 4)
    q = parse_polynomial("(y1+y2)*(y1+y3)", sp)
    step = divided_difference(q, simple_root_action(sp, "A", 1))
    assert step == parse_polynomial("y1+y2", sp)
    assert divided_difference(q, simple_root_action(sp, "A", 3)) == step
    assert divided_difference(step, simple_root_action(sp, "A", 2)) == sp.one()

    # determinant expansions for the even general-linear subgroup
    pair = parse_pair_spec("D:gl:3")
    sp = pair.variable_space()
    assert staircase_determinant(sp, 3, half=True) == parse_polynomial(
        "1/4*(x1*x2+x1*x3+x2*x3+y1*y2+y1*y3+y2*y3)*(x1+x2+x3+y1+y2+y3)"
        "-1/2*(x1*x2*x3+y1*y2*y3)",
        sp,
    )
    flipped = SignedPermutation("D", (-3, -2, 1))
    cls = closed_orbit_class(
        pair, parse_orbit_parameter(pair, "(-,-,+,-,+,+)")
    )
    assert cls.polynomial == parse_polynomial(
        "-1/4*(x1*x2+x1*x3+x2*x3+y1*y2-y1*y3-y2*y3)*(x1+x2+x3-y1-y2+y3)"
        "+1/2*(x1*x2*x3+y1*y2*y3)",
        sp,
    )
    report(3, "narrated operator applications reproduce exact polynomials")


# -- 4: closed-orbit oracle -----------------------------------------------------------


def _pairs_up_to_rank(limit: int) -> list[SymmetricPair]:
    pairs = []
    for n in range(1, limit + 1):
        for p in range(0, n + 1):
            q = n - p
            pairs.append(parse_pair_spec(f"A:glpq:{p},{q}") if p + q else None)
            pairs.append(parse_pair_spec(f"B:oo:{p},{q}"))
            pairs.append(parse_pair_spec(f"C:spsp:{p},{q}"))
            if n >= 2:
                pairs.append(parse_pair_spec(f"D:oo:{p},{q}"))
                if q >= 1:
                    pairs.append(parse_pair_spec(f"D:oo-odd:{p},{q}"))
        pairs.append(parse_pair_spec(f"A:so:{2 * n + 1}"))
        pairs.append(parse_pair_spec(f"A:so-even:{2 * n}"))
        pairs.append(parse_pair_spec(f"A:sp:{2 * n}"))
        pairs.append(parse_pair_spec(f"C:gl:{n}"))
        if n >= 2:
            pairs.append(parse_pair_spec(f"D:gl:{n}"))
    return [pair for pair in pairs if pair is not None]


def test_criterion_4_closed_orbit_oracle():
    start = time.time()
    checks = 0
    for pair in _pairs_up_to_rank(3):
        for param, _ in closed_orbits(pair):
            cls = closed_orbit_class(pair, param)
            for w in enumerate_group(*pair.ambient):
                assert restrict_at(cls, w.images) == weight_product_oracle(pair, param, w), (
                    f"{pair.spec_string()} {param} at {w.images}"
                )
                checks += 1
    elapsed = time.time() - start
    assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"
    report(4, f"restriction equals weight product at {checks} points in {elapsed:.1f}s")


# -- 5: operator laws -------------------------------------------------------------------


def _random_poly(sp, rng):
    f = sp.zero()
    for _ in range(4):
        term = sp.const(Fraction(rng.randint(-5, 5)))
        for slot in range(sp.nvars):
            e = rng.randint(0, 2)
            if e:
                name = sp.var_name(slot)
                var = sp.x(int(name[1:])) if name[0] == "x" else sp.y(int(name[1:]))
                term = term * var ** e
        f = f + term
    return f


def test_criterion_5_operator_laws():
    rng = random.Random(2024)
    cases = {
        "A": (VariableSpace(1, 4), [1, 2, 3]),
        "B": (VariableSpace(1, 3), [1, 2, 3]),
        "C": (VariableSpace(1, 3), [1, 2, 3]),
        "D": (VariableSpace(1, 3), [1, 2, 3]),
    }
    for family, (sp, indices) in cases.items():
        actions = [simple_root_action(sp, family, i) for i in indices]
        for _ in range(100):
            f = _random_poly(sp, rng)
            g = _random_poly(sp, rng)
            for i, act in zip(indices, actions):
                assert divided_difference(divided_difference(f, act), act).is_zero
                lhs = divided_difference(f * g, act)
                rhs = (
                    divided_difference(f, act) * g
                    + reflect(f, family, i) * divided_difference(g, act)
                )
                assert lhs == rhs
        # braid relations at the tail of each diagram
        for _ in range(100):
            f = _random_poly(sp, rng)
            if family == "A":
                a, b = actions[0], actions[1]
                lhs = divided_difference(
                    divided_difference(divided_difference(f, a), b), a
                )
                rhs = divided_difference(
                    divided_difference(divided_difference(f, b), a), b
                )
                assert lhs == rhs
                c = actions[2]
                assert divided_difference(divided_difference(f, a), c) == (
                    divided_difference(divided_difference(f, c), a)
                )
            elif family in ("B", "C"):
                a, b = actions[1], actions[2]
                lhs = rhs = f
                for act in (a, b, a, b):
                    lhs = divided_difference(lhs, act)
                for act in (b, a, b, a):
                    rhs = divided_difference(rhs, act)
                assert lhs == rhs
            else:
                a, c = actions[0], actions[2]
                lhs = divided_difference(
                    divided_difference(divided_difference(f, a), c), a
                )
                rhs = divided_difference(
                    divided_difference(divided_difference(f, c), a), c
                )
                assert lhs == rhs
                assert divided_difference(divided_difference(f, actions[1]), c) == (
                    divided_difference(divided_difference(f, c), actions[1])
                )
    report(5, "nilpotence, braid and twisted Leibniz on 100 samples per family")


# -- 6: determinant identities -------------------------------------------------------------


def test_criterion_6_determinant_identities():
    import itertools

    for n in (1, 2, 3):
        sp = VariableSpace(n, n)
        full = staircase_determinant(sp, n, half=False)
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
        for signs in itertools.product((1, -1), repeat=n):
            value = full.substitute(
                {j: (signs[j - 1], "x", j) for j in range(1, n + 1)}
            )
            assert value == (target if all(s == 1 for s in signs) else sp.zero())
    for n in (2, 3):
        sp = VariableSpace(n, n)
        half = staircase_determinant(sp, n, half=True)
        target = product(
            sp,
            (
                sp.x(i) + sp.x(j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            ),
        )
        # the even orthogonal Weyl group only realizes even sign vectors
        for signs in itertools.product((1, -1), repeat=n):
            if signs.count(-1) % 2:
                continue
            value = half.substitute(
                {j: (signs[j - 1], "x", j) for j in range(1, n + 1)}
            )
            assert value == (target if all(s == 1 for s in signs) else sp.zero())
    # witness that the restriction matters: one odd vector is genuinely
    # nonzero, via the hand value (x1+x2+x1-x2)/2 = x1 at rank two
    sp = VariableSpace(2, 2)
    half = staircase_determinant(sp, 2, half=True)
    odd = half.substitute({1: (1, "x", 1), 2: (-1, "x", 2)})
    assert odd == sp.x(1)
    report(6, "determinant sign specializations exact for n <= 3")


# -- 7: fiber counting ------------------------------------------------------------------------


def test_criterion_7_fiber_counting():
    rows_total = 0
    for name in ("B", "C", "D-compact", "D-unequal"):
        for n in range(1, 5):
            if name.startswith("D") and n < 2:
                continue
            rows = count_report(name, n)
            assert rows and all(r.ok for r in rows), f"{name}:{n}"
            rows_total += len(rows)
    report(7, f"clan totals equal fiber sizes across {rows_total} twisted involutions")


# -- 8: even orthogonal splitting --------------------------------------------------------------


def test_criterion_8_splitting():
    pair = parse_pair_spec("A:so-even:4")
    graph = build_weak_order_graph(pair)
    w0, mid = (4, 3, 2, 1), (3, 4, 1, 2)
    for tag in ("+", "-"):
        for root in (1, 3):
            assert any(
                e.source == InvolutionOrbit(w0, tag)
                and e.target == InvolutionOrbit(mid, tag)
                and e.root_index == root
                for e in graph.edges
            ), f"missing same-component cover for {tag} via {root}"
    classes = propagate_all(pair)
    union = (
        classes[InvolutionOrbit(w0, "+")].polynomial
        + classes[InvolutionOrbit(w0, "-")].polynomial
    )
    want = parse_polynomial("4*y1*y2*(y1+y2)*(y1+y3)", pair.variable_space())
    assert union == want
    report(8, "component pairing and the orthogonal-orbit sum both exact")


# -- 9: Chern rewrite ----------------------------------------------------------------------------


def test_criterion_9_chern_rewrite():
    pair = parse_pair_spec("A:glpq:2,2")
    classes = propagate_all(pair)
    expr = to_chern_basis(classes[parse_orbit_parameter(pair, "(+,+,-,-)")])
    zspace = VariableSpace(5, 4)
    z1, z2 = zspace.x(1), zspace.x(2)
    y3, y4 = zspace.y(3), zspace.y(4)
    expanded = (
        z2 ** 2
        - z1 * z2 * (y3 + y4)
        + z2 * (y3 + y4) ** 2
        - z1 * y3 * y4 * (y3 + y4)
        + (z1 ** 2 - 2 * z2) * y3 * y4
        + y3 ** 2 * y4 ** 2
    )
    assert expr.polynomial == expanded
    factored = (z1 * y4 - z2 - y4 ** 2) * (z1 * y3 - z2 - y3 ** 2)
    assert factored == expanded
    report(9, "Chern rewrite matches the expanded and factored forms")


# -- 10: closure containment along weak-order edges -------------------------------------

# A raise puts its source's closure in its target's.  On an equal-rank pair
# every fixed point is attractive, so a class is nonzero exactly at the
# fixed points in its closure (Brion, Transform. Groups 1997, section 4),
# and along every edge the source's support must lie in the target's.
SUPPORT_PAIRS = (
    "A:glpq:2,2", "A:glpq:3,1", "B:oo:2,1", "C:spsp:1,2", "C:gl:3", "D:oo:2,2", "D:gl:3",
)


def _support(cls, points) -> frozenset:
    return frozenset(w for w in points if not restrict_at(cls, w).is_zero)


def _uncontained(graph, support) -> list:
    return [e for e in graph.edges if not support[e.source] <= support[e.target]]


def test_criterion_10_edge_dominance():
    start = time.time()
    edges = 0
    for spec in SUPPORT_PAIRS:
        pair = parse_pair_spec(spec)
        graph = build_weak_order_graph(pair)
        points = [w.images for w in enumerate_group(*pair.ambient)]
        support = {param: _support(cls, points) for param, cls in propagate_all(pair).items()}
        assert _uncontained(graph, support) == [], spec
        edges += len(graph.edges)
        # a target class replaced by 0 breaks the containment on its edge
        edge = graph.edges[-1]
        zero = EquivariantClass(pair, pair.variable_space().zero())
        assert edge in _uncontained(graph, {**support, edge.target: _support(zero, points)})
    # On A:so-even:4 the rank numbers of the involutions (1,4)(2,3) and
    # (1,3)(2,4) nest, but closure(+(1,4)(2,3)) is not inside
    # closure(-(1,3)(2,4)): the identity is an attractive fixed point, as
    # the restricted tangent weights lie in the open half-space x1 > x2 > 0,
    # and only the first class is nonzero there.  So no closure order that
    # ignores the component tags can hold, which is why the library has none.
    pair = parse_pair_spec("A:so-even:4")
    identity = (1, 2, 3, 4)
    space = pair.variable_space()
    weights = {
        str(restrict_at(EquivariantClass(pair, space.y(i) - space.y(j)), identity))
        for i in range(1, 5)
        for j in range(i + 1, 5)
    }
    assert weights == {"x1 - x2", "x1 + x2", "2*x1", "2*x2"}
    classes = propagate_all(pair)
    plus = classes[parse_orbit_parameter(pair, "+(1,4)(2,3)")]
    minus = classes[parse_orbit_parameter(pair, "-(1,3)(2,4)")]
    assert str(restrict_at(plus, identity)) == "4*x1^3*x2 - 4*x1*x2^3"
    assert restrict_at(minus, identity).is_zero
    elapsed = time.time() - start
    assert elapsed < 15, f"support sweep took {elapsed:.1f}s"
    report(
        10,
        f"supports grow along {edges} weak-order edges, and +(1,4)(2,3) lies outside"
        f" -(1,3)(2,4) on A:so-even:4, in {elapsed:.1f}s",
    )
