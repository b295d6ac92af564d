import itertools
from fractions import Fraction

import pytest
from oracles import chern_expand

from korbits.algebra import Polynomial, VariableSpace, parse_polynomial
from korbits.classes import (
    EquivariantClass,
    propagate_all,
    to_chern_basis,
)
from korbits.errors import ContractViolation
from korbits.orbits import parse_orbit_parameter
from korbits.pairs import parse_pair_spec


# ---------------------------------------------------------------------------
# reference rewrite: a symmetry check per block, then leading-term division
# one block at a time on bare term dicts, and a separate euler pass


def _block_symmetric(terms: dict, start: int, width: int) -> bool:
    """Invariance under adjacent transpositions of slots [start, start+width)."""
    for k in range(width - 1):
        for mono, coeff in terms.items():
            swapped = list(mono)
            swapped[start + k], swapped[start + k + 1] = (
                swapped[start + k + 1],
                swapped[start + k],
            )
            if terms.get(tuple(swapped), 0) != coeff:
                return False
    return True


def _elementary_exponents_block(terms: dict, start: int, width: int) -> dict:
    """Rewrite the symmetric content of slots [start, start+width) into
    elementary-symmetric exponents occupying the same slots: the
    lex-greatest monomial has weakly decreasing block exponents lambda, and
    the product over the columns of the conjugate partition reproduces it
    with coefficient one."""
    total = len(next(iter(terms))) if terms else 0
    e_cache: dict[int, dict] = {}

    def e_poly(k: int) -> dict:
        if k not in e_cache:
            out: dict = {}
            for combo in itertools.combinations(range(start, start + width), k):
                mono = [0] * total
                for slot in combo:
                    mono[slot] = 1
                out[tuple(mono)] = Fraction(1)
            e_cache[k] = out
        return e_cache[k]

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                val = out.get(key, 0) + c1 * c2
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return out

    work = dict(terms)
    result: dict = {}
    while work:
        mono = max(work, key=lambda m: (sum(m[start : start + width]), m))
        block = list(mono[start : start + width])
        if max(block, default=0) == 0:
            # no block content left; pass the term through
            result[mono] = result.get(mono, 0) + work.pop(mono)
            if result[mono] == 0:
                del result[mono]
            continue
        if any(block[k] < block[k + 1] for k in range(width - 1)):
            raise ContractViolation("x-content is not symmetric in the block")
        coeff = work[mono]
        conjugate = [sum(1 for part in block if part > col) for col in range(block[0])]
        pieces: dict = {(0,) * total: Fraction(1)}
        for col in conjugate:
            pieces = mul(pieces, e_poly(col))
        outside = list(mono)
        for slot in range(start, start + width):
            outside[slot] = 0
        for m, c in pieces.items():
            key = tuple(x + y for x, y in zip(m, outside))
            val = work.get(key, 0) - c * coeff
            if val:
                work[key] = val
            else:
                work.pop(key, None)
        zmono = list(outside)  # z_k lives at slot start + k - 1
        for col in conjugate:
            zmono[start + col - 1] += 1
        key = tuple(zmono)
        val = result.get(key, 0) + coeff
        if val:
            result[key] = val
        else:
            result.pop(key, None)
    return result


def reference_chern(cls: EquivariantClass) -> Polynomial:
    """The Chern rewrite's polynomial, by the reference algorithm."""
    pair = cls.pair
    space = pair.variable_space()
    n, m = space.x_count, space.y_count
    # the exponent tuples of the class's terms, through the packed layout's accessor
    terms = {space.exponents(mono): c for mono, c in cls.polynomial.terms.items()}
    if pair.kind.chern == "blocks":
        p, q = pair.p, pair.q
        if not _block_symmetric(terms, 0, p) or not _block_symmetric(terms, p, q):
            raise ContractViolation("class is not symmetric in the x-blocks")
        terms = _elementary_exponents_block(terms, 0, p)
        terms = _elementary_exponents_block(terms, p, q)
        out = {mono[:n] + (0,) + mono[n:]: coeff for mono, coeff in terms.items()}
        out_space = VariableSpace(p + q + 1, m)
    else:
        out = {}
        for mono, coeff in terms.items():
            xpart = mono[:n]
            if any(xpart) and len(set(xpart)) != 1:
                raise ContractViolation("x-content is not a multiple of the full x-monomial")
            key = (xpart[0] if xpart else 0,) + mono[n:]
            out[key] = out.get(key, 0) + coeff
        out_space = VariableSpace(1, m)
    return Polynomial(out_space, {out_space.pack(mono): c for mono, c in out.items()})


ORACLE_PAIRS = [
    f"A:glpq:{p},{total - p}" for total in range(1, 6) for p in range(total + 1)
] + ["A:so:5", "A:so-even:4", "A:so-even:6", "A:sp:4", "A:sp:6", "A:sp:8"]


@pytest.mark.parametrize("spec", ORACLE_PAIRS)
def test_chern_rewrite_matches_reference_on_every_class(spec):
    pair = parse_pair_spec(spec)
    for param, cls in propagate_all(pair).items():
        expr = to_chern_basis(cls)
        assert expr.polynomial == reference_chern(cls), param
        assert chern_expand(expr) == cls.polynomial, param


@pytest.mark.parametrize(
    "spec, text, message",
    [
        ("A:glpq:2,2", "x3", "not symmetric in the x-blocks"),
        ("A:so-even:4", "x1*x2^2", "not a multiple of the full x-monomial"),
    ],
    ids=["asymmetric-second-block", "non-rectangular-euler"],
)
def test_chern_rejects_x_content_outside_the_generators(spec, text, message):
    pair = parse_pair_spec(spec)
    cls = EquivariantClass(pair, parse_polynomial(text, pair.variable_space()))
    with pytest.raises(ContractViolation, match=message):
        to_chern_basis(cls)
    with pytest.raises(ContractViolation, match=message):
        reference_chern(cls)


def _expected_expansion():
    """The expanded rank-condition formula for the bottom split cell,
    rebuilt over the z/y generators: z2^2 - z1*z2*(y3+y4) + z2*(y3+y4)^2
    - z1*y3*y4*(y3+y4) + (z1^2-2*z2)*y3*y4 + y3^2*y4^2."""
    sp = VariableSpace(5, 4)  # z1, z2, z3, z4, euler / y1..y4
    z1, z2 = sp.x(1), sp.x(2)
    y3, y4 = sp.y(3), sp.y(4)
    return (
        z2 ** 2
        - z1 * z2 * (y3 + y4)
        + z2 * (y3 + y4) ** 2
        - z1 * y3 * y4 * (y3 + y4)
        + (z1 ** 2 - 2 * z2) * y3 * y4
        + y3 ** 2 * y4 ** 2
    )


def test_chern_rewrite_of_bottom_cell():
    pair = parse_pair_spec("A:glpq:2,2")
    classes = propagate_all(pair)
    param = parse_orbit_parameter(pair, "(+,+,-,-)")
    expr = to_chern_basis(classes[param])
    assert expr.polynomial == _expected_expansion()


def test_expected_expansion_factors():
    # the displayed product (z1*y4 - z2 - y4^2)(z1*y3 - z2 - y3^2)
    # expands to the same polynomial
    sp = VariableSpace(5, 4)
    z1, z2 = sp.x(1), sp.x(2)
    y3, y4 = sp.y(3), sp.y(4)
    factored = (z1 * y4 - z2 - y4 ** 2) * (z1 * y3 - z2 - y3 ** 2)
    assert factored == _expected_expansion()


def test_chern_round_trip():
    pair = parse_pair_spec("A:glpq:2,2")
    classes = propagate_all(pair)
    for param, cls in classes.items():
        expr = to_chern_basis(cls)
        assert chern_expand(expr) == cls.polynomial


def test_chern_no_x_content_unchanged():
    pair = parse_pair_spec("A:glpq:2,2")
    cls = EquivariantClass(pair, parse_polynomial("y1*y2+y3", pair.variable_space()))
    expr = to_chern_basis(cls)
    assert str(expr) == "y1*y2 + y3"
    assert chern_expand(expr) == cls.polynomial


def test_chern_euler_substitution():
    pair = parse_pair_spec("A:so-even:4")
    sp = pair.variable_space()
    cls = EquivariantClass(
        pair,
        2 * (sp.x(1) * sp.x(2) + sp.y(1) * sp.y(2)) * (sp.y(1) + sp.y(2)),
    )
    expr = to_chern_basis(cls)
    text = str(expr)
    assert "e" in text and "x" not in text
    assert chern_expand(expr) == cls.polynomial


def test_chern_euler_for_every_split_class():
    pair = parse_pair_spec("A:so-even:4")
    classes = propagate_all(pair)
    for param, cls in classes.items():
        expr = to_chern_basis(cls)
        assert chern_expand(expr) == cls.polynomial


def test_chern_rejects_unsupported_x_content():
    pair = parse_pair_spec("A:so-even:4")
    sp = pair.variable_space()
    lopsided = EquivariantClass(pair, sp.x(1) + sp.y(1))
    with pytest.raises(ContractViolation):
        to_chern_basis(lopsided)


def test_chern_rejects_asymmetric_blocks():
    pair = parse_pair_spec("A:glpq:2,2")
    sp = pair.variable_space()
    lopsided = EquivariantClass(pair, sp.x(1))
    with pytest.raises(ContractViolation):
        to_chern_basis(lopsided)


def test_chern_dense_orbit_is_one():
    pair = parse_pair_spec("A:glpq:2,2")
    classes = propagate_all(pair)
    dense = parse_orbit_parameter(pair, "(1,2,2,1)")
    assert str(to_chern_basis(classes[dense])) == "1"
