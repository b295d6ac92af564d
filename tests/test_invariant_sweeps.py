"""Systematic invariant sweeps over all pairs of bounded rank.

These push the per-module invariants to the ranks they are stated for:
graph node sets match the enumerations, closed-orbit counts follow the
binomial/case formulas, propagation grades down to the constant 1 at the
dense orbit, and the component-splitting machinery scales past the
worked examples.
"""

import math

import pytest
from oracles import order_key

from korbits.classes import closed_orbit_class, propagate_all
from korbits.orbits import build_weak_order_graph, enumerate_orbits
from korbits.pairs import parse_pair_spec


def pairs_of_rank(n):
    out = []
    for p in range(0, n + 1):
        q = n - p
        out.append(parse_pair_spec(f"A:glpq:{p},{q}"))
        out.append(parse_pair_spec(f"B:oo:{p},{q}"))
        out.append(parse_pair_spec(f"C:spsp:{p},{q}"))
        if n >= 2:
            out.append(parse_pair_spec(f"D:oo:{p},{q}"))
            if q >= 1:
                out.append(parse_pair_spec(f"D:oo-odd:{p},{q}"))
    out.append(parse_pair_spec(f"A:so:{2 * n + 1}"))
    out.append(parse_pair_spec(f"A:so-even:{2 * n}"))
    out.append(parse_pair_spec(f"A:sp:{2 * n}"))
    out.append(parse_pair_spec(f"C:gl:{n}"))
    if n >= 2:
        out.append(parse_pair_spec(f"D:gl:{n}"))
    return out


def expected_closed_count(pair):
    n, p, q = pair.n, pair.p, pair.q
    return {
        "A:glpq": math.comb(n, p),
        "A:so": 1,
        "A:so-even": 2,
        "A:sp": 1,
        "B:oo": math.comb(n, p),
        "C:spsp": math.comb(n, p),
        "C:gl": 2 ** n,
        "D:oo": math.comb(n, p),
        "D:gl": 2 ** (n - 1),
        "D:oo-odd": math.comb(n - 1, p),
    }[pair.kind.descriptor]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_node_sets_match_enumeration(n):
    for pair in pairs_of_rank(n):
        if pair.kind.descriptor == "A:so-even" and n >= 4:
            continue  # the SL(8) instance runs in its own test below
        graph = build_weak_order_graph(pair)
        assert sorted(graph.nodes, key=order_key) == enumerate_orbits(pair), pair.spec_string()
        assert len(graph.closed) == expected_closed_count(pair), pair.spec_string()
        for edge in graph.edges:
            assert graph.level[edge.target] == graph.level[edge.source] + 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_propagation_ends_at_one_everywhere(n):
    for pair in pairs_of_rank(n):
        classes = propagate_all(pair)
        graph = build_weak_order_graph(pair)
        one = pair.variable_space().one()
        assert classes[graph.dense].polynomial == one, pair.spec_string()
        top = closed_orbit_class(pair, graph.closed[0]).polynomial.homogeneous_degree()
        for param in graph.nodes:
            want = top - graph.level[param]
            poly = classes[param].polynomial
            if want == 0:
                assert poly == one
            else:
                assert poly.homogeneous_degree() == want, (pair.spec_string(), param)


def test_split_engine_scales_to_rank_four():
    pair = parse_pair_spec("A:so-even:8")
    classes = propagate_all(pair)
    graph = build_weak_order_graph(pair)
    assert len(graph.nodes) == len(enumerate_orbits(pair)) == 869
    assert classes[graph.dense].polynomial == pair.variable_space().one()
