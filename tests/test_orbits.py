import pytest

import korbits.orbits
from korbits.clans import MINUS, PLUS, Clan, enumerate_clans, pair_validity
from korbits.errors import ContractViolation, InternalError, UsageError
from korbits.orbits import (
    NO_RAISE,
    InvolutionOrbit,
    RootStatus,
    _clan_status_mirrored,
    _fresh_pair,
    build_weak_order_graph,
    classify_simple_root,
    closed_orbits,
    closure_compare,
    conjugation_by_longest,
    cross_action,
    enumerate_orbits,
    parse_orbit_parameter,
    to_dot,
    twisted_involution_action,
)
from korbits.pairs import parse_pair_spec
from korbits.weyl import SignedPermutation, parse_cycles

COUNTS = {
    "A:glpq:2,2": 21,
    "A:so:5": 26,
    "A:so-even:4": 13,
    "A:sp:4": 3,
    "A:sp:6": 15,
    "B:oo:2,1": 25,
    "C:spsp:2,1": 9,
    "C:gl:2": 11,
    "D:oo:2,1": 12,
    "D:gl:3": 10,
    "D:oo-odd:1,2": 13,
}


@pytest.mark.parametrize("spec,count", sorted(COUNTS.items()))
def test_orbit_counts(spec, count):
    pair = parse_pair_spec(spec)
    assert len(enumerate_orbits(pair)) == count


def _clan_pair_specs(max_rank):
    for n in range(1, max_rank + 1):
        yield f"C:gl:{n}"
        if n >= 2:
            yield f"D:gl:{n}"
        for p in range(n + 1):
            yield f"A:glpq:{p},{n - p}"
            yield f"B:oo:{p},{n - p}"
            yield f"C:spsp:{p},{n - p}"
            if n >= 2:
                yield f"D:oo:{p},{n - p}"
                if p < n:
                    yield f"D:oo-odd:{p},{n - p}"


@pytest.mark.parametrize("spec", list(_clan_pair_specs(4)))
def test_clan_orbits_match_filtered_enumeration(spec):
    # filtering every clan of the signature by pair_validity is the
    # reference for the mirror-aware enumeration
    pair = parse_pair_spec(spec)
    clans = enumerate_clans(*pair.clan_signature())
    want = [c for c in clans if pair_validity(c, pair)]
    assert enumerate_orbits(pair) == want


@pytest.mark.parametrize(
    "spec",
    [
        "A:glpq:1,1",
        "A:glpq:2,1",
        "A:glpq:2,2",
        "A:so:3",
        "A:so:5",
        "A:so-even:2",
        "A:so-even:4",
        "A:sp:2",
        "A:sp:4",
        "B:oo:1,1",
        "B:oo:2,1",
        "B:oo:0,2",
        "C:spsp:1,1",
        "C:spsp:2,1",
        "C:gl:1",
        "C:gl:2",
        "C:gl:3",
        "D:oo:1,1",
        "D:oo:2,1",
        "D:gl:2",
        "D:gl:3",
        "D:oo-odd:1,1",
        "D:oo-odd:1,2",
        "D:oo-odd:0,3",
    ],
)
def test_graph_reaches_every_orbit(spec):
    pair = parse_pair_spec(spec)
    graph = build_weak_order_graph(pair)
    assert sorted(graph.nodes, key=lambda p: p.sort_key()) == enumerate_orbits(pair)
    targets = {e.target for e in graph.edges}
    for node in graph.nodes:
        if node in graph.closed:
            assert node not in targets
        else:
            assert node in targets
    # every edge raises the level by exactly one
    for e in graph.edges:
        assert graph.level[e.target] == graph.level[e.source] + 1


def test_closed_orbit_counts_and_reps():
    pair = parse_pair_spec("A:glpq:2,2")
    closed = closed_orbits(pair)
    assert len(closed) == 6
    by_param = {str(p): rep for p, rep in closed}
    assert by_param["(+,+,-,-)"].is_identity()
    assert by_param["(+,-,+,-)"].images == (1, 3, 2, 4)

    pair = parse_pair_spec("A:so:5")
    closed = closed_orbits(pair)
    assert len(closed) == 1
    assert closed[0][0].involution == (5, 4, 3, 2, 1)  # the longest element
    assert closed[0][1].is_identity()

    pair = parse_pair_spec("D:oo-odd:1,2")
    closed = closed_orbits(pair)
    assert len(closed) == 2
    reps = {str(p): rep.images for p, rep in closed}
    assert reps["(+,-,1,1,-,+)"] == (1, 3, 2)
    assert reps["(-,+,1,1,+,-)"] == (3, 1, 2)


def test_closed_counts_follow_rank_formulas():
    import math

    assert len(closed_orbits(parse_pair_spec("B:oo:2,1"))) == math.comb(3, 2)
    assert len(closed_orbits(parse_pair_spec("C:spsp:2,1"))) == math.comb(3, 2)
    assert len(closed_orbits(parse_pair_spec("C:gl:2"))) == 4
    assert len(closed_orbits(parse_pair_spec("D:gl:3"))) == 4
    assert len(closed_orbits(parse_pair_spec("A:so-even:4"))) == 2
    assert len(closed_orbits(parse_pair_spec("D:oo-odd:1,2"))) == math.comb(2, 1)


# -- simple root classification ------------------------------------------------


def test_classify_type_a_noncompact():
    pair = parse_pair_spec("A:glpq:3,2")
    param = Clan.parse("(1,+,-,1,+)")
    status = classify_simple_root(pair, param, 2)
    assert status.kind == "noncompact_I"
    assert str(status.target) == "(1,2,2,1,+)"


def test_classify_so_odd_blue():
    pair = parse_pair_spec("A:so:3")
    param = parse_orbit_parameter(pair, "(2,3)")
    status = classify_simple_root(pair, param, 2)
    assert status.kind == "noncompact_II"
    assert status.degree == 2
    assert str(status.target) == "id"
    assert classify_simple_root(pair, param, 1).kind == "no_raise"


def test_classify_b_last_root():
    pair = parse_pair_spec("B:oo:2,1")
    param = Clan.parse("(1,+,1,-,2,+,2)")
    status = classify_simple_root(pair, param, 3)
    assert status.kind == "complex"
    assert str(status.target) == "(1,+,2,-,1,+,2)"


def test_classify_d_gl_flip_rule():
    pair = parse_pair_spec("D:gl:3")
    param = Clan.parse("(+,+,+,-,-,-)")
    status = classify_simple_root(pair, param, 3)
    assert status.raises
    # the target keeps the trailing minus: the plus-ended variant is not
    # skew-symmetric, so it is not even a parameter of this pair
    assert str(status.target) == "(+,1,2,1,2,-)"
    # and the stationary example
    frozen = Clan.parse("(-,1,1,2,2,+)")
    assert classify_simple_root(pair, frozen, 3).kind == "no_raise"


def test_classify_d_gl_weak_order_jump():
    # this raise exists for the subgroup even though the ambient block
    # orbits are unrelated in their weak order
    pair = parse_pair_spec("D:gl:3")
    param = Clan.parse("(1,1,-,+,2,2)")
    status = classify_simple_root(pair, param, 3)
    assert status.raises
    assert str(status.target) == "(1,+,2,1,-,2)"


# -- type D's last root: the former rules as test-only references ----------------


def _clan_status_d_last_orthogonal(clan: Clan, n: int) -> RootStatus:
    """Type D alpha_n for the orthogonal-block pairs.

    Acts on the window (n-1, n, n+1, n+2) of a length 2n clan; the complex
    branch has eight patterns, the non-compact branch three.
    """
    size = 2 * n
    a, b, c, d = n - 1, n, n + 1, n + 2
    sa, sb, sc, sd = (clan.is_sign(pos) for pos in (a, b, c, d))
    sym = clan.symbols

    def swapped() -> Clan:
        return clan.swap(a, c).swap(b, d)

    # non-compact branch first: sign window (+,-,-,+) / (-,+,+,-) is type I,
    # adjacent mate pairs (1,1,2,2) are type II
    if sa and sb and sc and sd:
        window = (sym[a - 1], sym[b - 1], sym[c - 1], sym[d - 1])
        if window in ((PLUS, MINUS, MINUS, PLUS), (MINUS, PLUS, PLUS, MINUS)):
            return RootStatus("noncompact_I", _fresh_pair(clan, (a, c, b, d)))
        return NO_RAISE
    if not sa and not sb and not sc and not sd:
        if clan.mate(a) == b and clan.mate(c) == d:
            return RootStatus("noncompact_II", clan.swap(a, c))
    # complex branch, eight patterns
    if sa and sd and not sb and not sc:
        if clan.mate(b) == c:
            return RootStatus("complex", swapped())
        if clan.mate(b) < a and clan.mate(c) > d:
            return RootStatus("complex", swapped())
        return NO_RAISE
    if not sa and not sd and sb and sc:
        if clan.mate(a) < a and clan.mate(d) > d:
            return RootStatus("complex", swapped())
        return NO_RAISE
    if not (sa or sb or sc or sd):
        ma, mb, mc, md = clan.mate(a), clan.mate(b), clan.mate(c), clan.mate(d)
        if mb == c and ma < a and md > d:
            # window (1,2,2,3)
            return RootStatus("complex", swapped())
        if ma == d and mb < a and mc > d:
            # window (1,2,3,1)
            return RootStatus("complex", swapped())
        distinct = len({ma, mb, mc, md} | {a, b, c, d}) == 8
        if distinct:
            if ma < a and mb < a and mc > d and md > d:
                return RootStatus("complex", swapped())
            if ma < a and mc < a and mb > d and md > d and ma + mb < size + 1:
                return RootStatus("complex", swapped())
            if mb < a and md < a and ma > d and mc > d and ma + mb < size + 1:
                return RootStatus("complex", swapped())
    return NO_RAISE


def _clan_status_d_last_gl(clan: Clan, n: int) -> RootStatus:
    """Type D alpha_n for the general-linear pair: flip positions n, n+1,
    apply the alpha_{n-1} move, flip back.  All covers have degree one."""
    flipped = clan.swap(n, n + 1)
    inner = _clan_status_mirrored(flipped, n - 1, with_type_ii=False)
    if not inner.raises:
        return NO_RAISE
    assert isinstance(inner.target, Clan)
    target = inner.target.swap(n, n + 1)
    if target == clan:
        return NO_RAISE
    kind = "complex" if inner.kind == "complex" else "noncompact_I"
    return RootStatus(kind, target)


def _type_d_specs(max_rank):
    for n in range(2, max_rank + 1):
        yield f"D:gl:{n}"
        for p in range(n + 1):
            yield f"D:oo:{p},{n - p}"
            if p < n:
                yield f"D:oo-odd:{p},{n - p}"


def test_d_last_root_flip_matches_former_rules():
    # alpha_n through the diagram flip against the two rules it replaced, on
    # every orbit clan (D:gl's front-parity filter included) of rank 2..6
    checked = 0
    for spec in _type_d_specs(6):
        pair = parse_pair_spec(spec)
        n = pair.n
        gl = spec.startswith("D:gl")
        former = _clan_status_d_last_gl if gl else _clan_status_d_last_orthogonal
        for param in enumerate_orbits(pair):
            want = former(param, n)
            assert classify_simple_root(pair, param, n) == want, (spec, str(param))
            checked += 1
    assert checked == 7018


@pytest.mark.parametrize("spec", ["A:sp:4", "A:sp:6", "C:spsp:2,1", "C:spsp:1,1", "D:gl:3", "D:gl:2"])
def test_no_degree_two_covers(spec):
    pair = parse_pair_spec(spec)
    for param in enumerate_orbits(pair):
        for i in range(1, pair.num_simple_roots() + 1):
            assert classify_simple_root(pair, param, i).kind != "noncompact_II"


def test_c_gl_has_degree_two_cover():
    pair = parse_pair_spec("C:gl:2")
    param = Clan.parse("(1,2,1,2)")
    status = classify_simple_root(pair, param, 1)
    assert status.kind == "noncompact_II"
    assert str(status.target) == "(1,2,2,1)"


# -- cross action and the twisted monoid action ---------------------------------


def test_cross_action_swaps_signs():
    pair = parse_pair_spec("A:glpq:2,2")
    s2 = parse_cycles("(2,3)", 4)
    param = Clan.parse("(+,-,+,-)")
    assert str(cross_action(pair, s2, param)) == "(+,+,-,-)"


def test_cross_action_fixes_type_ii_witness():
    pair = parse_pair_spec("C:gl:2")
    s1 = SignedPermutation("BC", (1, 2)).times_generator(1)
    param = Clan.parse("(1,2,1,2)")
    assert cross_action(pair, s1, param) == param


def test_cross_action_conjugates_involutions():
    pair = parse_pair_spec("A:so:3")
    s1 = parse_cycles("(1,2)", 3)
    param = parse_orbit_parameter(pair, "(1,3)")
    assert str(cross_action(pair, s1, param)) == "(2,3)"


def test_twisted_involution_action():
    theta = conjugation_by_longest(3)
    w0 = parse_cycles("(1,3)", 3)
    # twisted involutions here are b*w0 for honest involutions b
    a = parse_cycles("(2,3)", 3) * w0
    assert theta(a) == a.inverse()
    raised = twisted_involution_action(a, 2, theta)
    assert raised * w0.inverse() == parse_cycles("id", 3) * parse_cycles("id", 3)
    # the no-raise branch returns the input
    low = parse_cycles("id", 3) * w0  # the twisted involution of the dense orbit
    assert twisted_involution_action(low, 1, theta) == low


def test_twisted_action_matches_involution_rules():
    # conjugation route: m(s_2) moves (1,3)(2,4) to (1,2)(3,4)
    theta = conjugation_by_longest(4)
    w0 = SignedPermutation("A", (4, 3, 2, 1))
    b = parse_cycles("(1,3)(2,4)", 4)
    raised = twisted_involution_action(b * w0, 2, theta) * w0.inverse()
    assert raised.cycle_string() == "(1,2)(3,4)"


@pytest.mark.parametrize("spec", ["A:so:3", "A:so:5", "A:sp:4", "A:sp:6"])
def test_m_action_agrees_with_classification(spec):
    pair = parse_pair_spec(spec)
    _, size = pair.ambient_family()
    theta = conjugation_by_longest(size)
    w0 = SignedPermutation("A", tuple(range(size, 0, -1)))
    for param in enumerate_orbits(pair):
        b = SignedPermutation("A", param.involution)
        for i in range(1, size):
            status = classify_simple_root(pair, param, i)
            image = twisted_involution_action(b * w0, i, theta)
            if status.raises:
                assert image == SignedPermutation("A", status.target.involution) * w0
            else:
                moved = image != b * w0
                if moved:
                    # the monoid raises the twisted involution, but for the
                    # symplectic pair the image leaves the orbit set
                    assert pair.case == "A_SP"
                    target = image * w0.inverse()
                    assert any(
                        target.images[k] == k + 1 for k in range(size)
                    )


# -- weak order graphs -----------------------------------------------------------


def test_symplectic_graph_shape():
    pair = parse_pair_spec("A:sp:4")
    graph = build_weak_order_graph(pair)
    named = {(str(e.source), e.root_index, str(e.target), e.degree) for e in graph.edges}
    assert named == {
        ("(1,4)(2,3)", 1, "(1,3)(2,4)", 1),
        ("(1,4)(2,3)", 3, "(1,3)(2,4)", 1),
        ("(1,3)(2,4)", 2, "(1,2)(3,4)", 1),
    }


def test_so3_graph_colors():
    pair = parse_pair_spec("A:so:3")
    graph = build_weak_order_graph(pair)
    degrees = sorted((str(e.source), str(e.target), e.degree) for e in graph.edges)
    assert degrees == [
        ("(1,2)", "id", 2),
        ("(1,3)", "(1,2)", 1),
        ("(1,3)", "(2,3)", 1),
        ("(2,3)", "id", 2),
    ]


def test_even_orthogonal_split_pairing():
    # localization fixes the component pairing: each tagged component of
    # the bottom orbit raises to the same-tag component above it
    pair = parse_pair_spec("A:so-even:4")
    graph = build_weak_order_graph(pair)
    w0 = (4, 3, 2, 1)
    mid = (3, 4, 1, 2)
    for tag in ("+", "-"):
        for root in (1, 3):
            assert (
                sum(
                    1
                    for e in graph.edges
                    if e.source == InvolutionOrbit(w0, tag)
                    and e.target == InvolutionOrbit(mid, tag)
                    and e.root_index == root
                    and e.degree == 1
                )
                == 1
            )
    # the split bottom also reaches the unsplit orbit above via root 2
    unsplit = [
        e
        for e in graph.edges
        if e.source == InvolutionOrbit(w0, "+") and not e.target.component
    ]
    assert [(e.root_index, str(e.target), e.degree) for e in unsplit] == [(2, "(1,4)", 1)]


# -- closure comparison ------------------------------------------------------------


def test_closure_compare_involutions():
    pair = parse_pair_spec("A:so:5")
    w0 = parse_orbit_parameter(pair, "(1,5)(2,4)")
    some = parse_orbit_parameter(pair, "(2,4)")
    assert closure_compare(pair, w0, some) == "less"
    assert closure_compare(pair, some, w0) == "greater"
    assert closure_compare(pair, some, some) == "equal"


def test_closure_compare_split_components():
    pair = parse_pair_spec("A:so-even:4")
    plus = parse_orbit_parameter(pair, "+(1,3)(2,4)")
    minus = parse_orbit_parameter(pair, "-(1,3)(2,4)")
    assert closure_compare(pair, plus, minus) == "incomparable"


def test_closure_compare_dominance_on_edges():
    for spec in ("A:glpq:2,2", "A:glpq:2,1"):
        pair = parse_pair_spec(spec)
        graph = build_weak_order_graph(pair)
        for e in graph.edges:
            assert closure_compare(pair, e.source, e.target) == "less"


# -- misc ------------------------------------------------------------------------


def test_dot_output_well_formed():
    pair = parse_pair_spec("A:sp:4")
    dot = to_dot(build_weak_order_graph(pair))
    assert dot.startswith("digraph weak_order {")
    assert dot.rstrip().endswith("}")
    body = dot[dot.index("{") + 1 : dot.rindex("}")]
    for line in body.strip().splitlines():
        line = line.strip()
        assert line.endswith(";")
        assert ("->" in line) or ("[label=" in line) or line.startswith("rankdir")
    assert dot.count("->") == 3


def test_parse_orbit_parameter_errors():
    pair = parse_pair_spec("A:sp:4")
    with pytest.raises(UsageError):
        parse_orbit_parameter(pair, "(1,2)")  # has fixed points
    pair = parse_pair_spec("A:so-even:4")
    with pytest.raises(UsageError):
        parse_orbit_parameter(pair, "(1,3)(2,4)")  # needs a component tag
    pair = parse_pair_spec("C:gl:2")
    with pytest.raises(UsageError):
        parse_orbit_parameter(pair, "(+,+,-,-,+)")


@pytest.mark.parametrize(
    "spec",
    [
        "A:glpq:2,2",
        "A:glpq:2,1",
        "A:so:3",
        "A:so:5",
        "A:sp:4",
        "A:sp:6",
        "B:oo:2,1",
        "B:oo:1,1",
        "C:spsp:2,1",
        "C:gl:2",
        "C:gl:3",
        "D:oo:2,1",
        "D:gl:3",
        "D:oo-odd:1,2",
    ],
)
def test_degree_two_exactly_when_cross_action_fixes(spec):
    # a raising root has a degree-two cover exactly when the cross action
    # of its reflection fixes the orbit parameter
    from korbits.weyl import SignedPermutation

    pair = parse_pair_spec(spec)
    family, size = pair.ambient_family()
    for param in enumerate_orbits(pair):
        for i in range(1, pair.num_simple_roots() + 1):
            status = classify_simple_root(pair, param, i)
            if not status.raises:
                continue
            s_i = SignedPermutation.identity(family, size).times_generator(i)
            fixed = cross_action(pair, s_i, param) == param
            assert fixed == (status.kind == "noncompact_II"), (spec, str(param), i)


def _pair_specs(max_rank):
    yield from _clan_pair_specs(max_rank)
    for n in range(1, max_rank + 1):
        yield from (f"A:so:{2 * n + 1}", f"A:so-even:{2 * n}", f"A:sp:{2 * n}")


@pytest.mark.parametrize("spec", list(_pair_specs(4)))
def test_parameter_strings_round_trip(spec):
    # a parameter is the clan or the involution itself, and only the
    # fixed-point-free involutions of the even orthogonal pair carry a tag
    pair = parse_pair_spec(spec)
    for param in enumerate_orbits(pair):
        assert parse_orbit_parameter(pair, str(param), allow_union=True) == param
        assert isinstance(param, Clan if pair.is_clan_case() else InvolutionOrbit)
        if isinstance(param, InvolutionOrbit):
            fixed_point_free = all(v != i for i, v in enumerate(param.involution, start=1))
            split = pair.case == "A_SO_EVEN" and fixed_point_free
            assert bool(param.component) == split, (spec, str(param))


@pytest.mark.parametrize("spec", list(_pair_specs(3)))
def test_graph_orders_nodes_and_edges_by_level_and_sort_key(spec):
    graph = build_weak_order_graph(parse_pair_spec(spec))
    level = graph.level
    assert list(level) == enumerate_orbits(parse_pair_spec(spec))
    assert list(graph.nodes) == sorted(graph.nodes, key=lambda p: (level[p], p.sort_key()))
    assert list(graph.edges) == sorted(
        graph.edges, key=lambda e: (level[e.source], e.source.sort_key(), e.root_index)
    )


@pytest.mark.parametrize("spec", list(_pair_specs(4)))
def test_enumerate_orbits_comes_sorted(spec):
    params = enumerate_orbits(parse_pair_spec(spec))
    assert params == sorted(params, key=lambda p: p.sort_key())


def test_orbits_listing_computes_no_sort_key(monkeypatch):
    from korbits.cli import main

    for spec in ("D:oo:2,2", "A:so-even:6"):
        build_weak_order_graph(parse_pair_spec(spec))
        calls = []
        for cls in (Clan, InvolutionOrbit):
            monkeypatch.setattr(cls, "sort_key", lambda self: calls.append(1))
        assert main(["orbits", spec]) == 0 and calls == []
        monkeypatch.undo()


def test_root_index_range_is_checked():
    pair = parse_pair_spec("A:glpq:2,2")
    param = enumerate_orbits(pair)[0]
    for i in (0, 4):
        with pytest.raises(ContractViolation, match=f"root index {i} out of range for"):
            classify_simple_root(pair, param, i)


def _engine_error(monkeypatch, spec, classify):
    monkeypatch.setattr(korbits.orbits, "classify_simple_root", classify)
    build_weak_order_graph.cache_clear()
    try:
        with pytest.raises(InternalError) as info:
            build_weak_order_graph(parse_pair_spec(spec))
    finally:
        build_weak_order_graph.cache_clear()
    return str(info.value)


def test_engine_errors_name_the_pair_and_the_edge(monkeypatch):
    # A:glpq:1,1 has the closed orbits (+,-), (-,+) under the dense (1,1)
    plus_minus, minus_plus = Clan(("+", "-")), Clan(("-", "+"))

    def back_to_closed(pair, param, i):
        if param == minus_plus:
            return RootStatus("complex", plus_minus)
        return classify_simple_root(pair, param, i)

    def stuck(pair, param, i):
        return NO_RAISE

    def one_closed_stuck(pair, param, i):
        return NO_RAISE if param == minus_plus else classify_simple_root(pair, param, i)

    assert _engine_error(monkeypatch, "A:glpq:1,1", back_to_closed) == (
        "A:glpq:1,1: inconsistent level for (+,-), raised from (-,+) by alpha_1: 0 vs 1"
    )
    assert _engine_error(monkeypatch, "A:glpq:1,1", stuck) == (
        "weak order graph of A:glpq:1,1 reached 2 of 3 orbit parameters"
    )
    assert _engine_error(monkeypatch, "A:glpq:1,1", one_closed_stuck) == (
        "A:glpq:1,1: expected one dense orbit, found (-,+), (1,1)"
    )


def test_graph_engine_sorts_only_inside_the_enumerations(monkeypatch):
    # the engine orders its nodes and edges from the enumeration; the only
    # sort keys computed are those of the own sorts of enumerate_clans (one
    # per clan) and closed_orbits (one per closed orbit)
    calls = []
    for cls in (Clan, InvolutionOrbit):
        monkeypatch.setattr(
            cls, "sort_key", lambda self, key=cls.sort_key: calls.append(1) or key(self)
        )
    for spec, count in (("D:oo:3,3", 1391), ("A:so-even:6", 2)):
        pair = parse_pair_spec(spec)
        build_weak_order_graph.cache_clear()
        calls.clear()
        try:
            graph = build_weak_order_graph(pair)
        finally:
            build_weak_order_graph.cache_clear()
        clans = len(graph.nodes) if pair.is_clan_case() else 0
        assert len(calls) == count == clans + len(graph.closed)
