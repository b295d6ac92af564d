"""The slotted records against frozen-dataclass twins.

The twins below are the record definitions the library used before its
records became plain ``__slots__`` classes, kept as test-only reference
code: equality, hashing (and with it the iteration order of sets of
records), immutability and the validation messages must not move.
"""

import dataclasses
import itertools

import pytest
from oracles import canonical_symbols, enumerate_group

from korbits.algebra import VariableSpace
from korbits.clans import Clan
from korbits.errors import ContractViolation, UsageError
from korbits.orbits import (
    InvolutionOrbit,
    RootStatus,
    WeakEdge,
    _fresh_pair,
    build_weak_order_graph,
    classify_simple_root,
    enumerate_orbits,
)
from korbits.pairs import KINDS, PQ, RANK, SymmetricPair
from korbits.weyl import SignedPermutation

frozen = dataclasses.dataclass(frozen=True)


@frozen
class TwinVariableSpace:
    x_count: int
    y_count: int
    shifts: tuple = dataclasses.field(init=False, repr=False, compare=False, default=())
    degree_shift: int = dataclasses.field(init=False, repr=False, compare=False, default=0)


@frozen
class TwinSymmetricPair:
    descriptor: str
    n: int
    p: int = 0
    q: int = 0


@frozen
class TwinSignedPermutation:
    family: str
    images: tuple


@frozen
class TwinClan:
    mates: tuple


@frozen
class TwinInvolutionOrbit:
    involution: tuple
    component: str


@frozen
class TwinWeakEdge:
    source: object
    target: object
    root_index: int
    degree: int


def twin(record):
    """The frozen-dataclass twin of a record, built field by field."""
    if isinstance(record, VariableSpace):
        return TwinVariableSpace(record.x_count, record.y_count)
    if isinstance(record, SymmetricPair):
        return TwinSymmetricPair(record.kind.descriptor, record.n, record.p, record.q)
    if isinstance(record, SignedPermutation):
        return TwinSignedPermutation(record.family, record.images)
    if isinstance(record, Clan):
        return TwinClan(record.mates)
    if isinstance(record, InvolutionOrbit):
        return TwinInvolutionOrbit(record.involution, record.component)
    if isinstance(record, WeakEdge):
        return TwinWeakEdge(
            twin(record.source), twin(record.target), record.root_index, record.degree
        )
    raise TypeError(record)


def rebuilt(record):
    """An equal record that shares no top-level object with ``record``."""
    if isinstance(record, VariableSpace):
        return VariableSpace(record.x_count, record.y_count)
    if isinstance(record, SymmetricPair):
        return SymmetricPair(record.kind.descriptor, record.n, record.p, record.q)
    if isinstance(record, SignedPermutation):
        return SignedPermutation(record.family, tuple(list(record.images)))
    if isinstance(record, Clan):
        return Clan(tuple(list(record.symbols)))
    if isinstance(record, InvolutionOrbit):
        return InvolutionOrbit(tuple(list(record.involution)), record.component)
    if isinstance(record, WeakEdge):
        source, target = rebuilt(record.source), rebuilt(record.target)
        return WeakEdge(source, target, record.root_index, record.degree)
    raise TypeError(record)


def pairs_of_rank(n):
    for kind in KINDS.values():
        splits = [(p, n - p) for p in range(n + 1)] if kind.form == PQ else [(0, 0)]
        for p, q in splits:
            try:
                yield SymmetricPair(kind.descriptor, n, p, q)
            except UsageError:
                continue


PAIRS = [pair for n in (2, 3) for pair in pairs_of_rank(n)]


def check_against_twins(records):
    """==, hash and set iteration order of ``records`` match their twins."""
    twins = [twin(r) for r in records]
    for record, record_twin in zip(records, twins):
        assert hash(record) == hash(record_twin)
        copy = rebuilt(record)
        assert copy == record and record == copy and not copy != record
        assert hash(copy) == hash(record)
    for (a, ta), (b, tb) in itertools.pairwise(zip(records, twins)):
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert [twin(r) for r in set(records)] == list(set(twins))


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.spec_string())
def test_orbit_parameters_and_edges_match_dataclass_twins(pair):
    graph = build_weak_order_graph(pair)
    check_against_twins(list(graph.nodes))
    check_against_twins(list(graph.edges))
    sources = {edge.source for edge in graph.edges}
    assert [twin(s) for s in sources] == list({twin(edge.source) for edge in graph.edges})
    for edge in graph.edges[:1]:
        swapped = WeakEdge(edge.target, edge.source, edge.root_index, edge.degree)
        assert (edge == swapped) == (twin(edge) == twin(swapped))


def test_pairs_spaces_and_permutations_match_dataclass_twins():
    check_against_twins(PAIRS)
    check_against_twins([pair.variable_space() for pair in PAIRS] + [VariableSpace(0, 0)])
    for family, n in (("A", 4), ("BC", 3), ("D", 4)):
        check_against_twins(list(enumerate_group(family, n)))


def test_records_of_different_classes_never_compare_equal():
    inv = (2, 1, 4, 3)
    records = [
        InvolutionOrbit(inv, "+"),
        Clan((1, 1)),
        SignedPermutation("A", inv),
        SymmetricPair("A:so-even", 2),
    ]
    for a, b in itertools.permutations(records, 2):
        assert a.__eq__(b) is NotImplemented and a != b
        assert a.__eq__(inv) is NotImplemented and a != inv


@pytest.mark.parametrize(
    "record, field",
    [
        (VariableSpace(2, 3), "x_count"),
        (VariableSpace(2, 3), "shifts"),
        (SymmetricPair("A:glpq", 2, 1, 1), "n"),
        (SignedPermutation("BC", (2, -1)), "images"),
        (Clan(("+", 1, 1)), "symbols"),
        (build_weak_order_graph(SymmetricPair("A:sp", 2)), "nodes"),
        (InvolutionOrbit((2, 1)), "involution"),
        (InvolutionOrbit((2, 1), "-"), "component"),
        (WeakEdge(InvolutionOrbit((1, 2)), InvolutionOrbit((2, 1)), 1, 1), "degree"),
        (KINDS["D:gl"], "clan_rule"),
        (RootStatus("complex"), "kind"),
        (VariableSpace(1, 0).x(1), "terms"),
        (Clan(("+", 1, 1)), "mates"),
    ],
)
def test_records_refuse_assignment_and_deletion(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: VariableSpace(-1, 2), ContractViolation, "variable counts must be nonnegative"),
        (lambda: SymmetricPair("E_XX", 2), UsageError, "unknown case 'E_XX'"),
        (lambda: SymmetricPair("A:glpq", 0), UsageError, "rank must be at least 1"),
        (lambda: SymmetricPair("B:oo", 3, 1, 1), UsageError, "need p, q >= 0 with p + q = n"),
        (
            lambda: SymmetricPair("D:oo-odd", 2, 2, 0),
            UsageError,
            "D:oo-odd:2,0 has clan signature (5, -1); the odd orthogonal split needs q >= 1",
        ),
        (lambda: SymmetricPair("D:gl", 1), UsageError, "type D pairs need n >= 2"),
        (
            lambda: SignedPermutation("A", (1, 1)),
            ContractViolation,
            "(1, 1) is not a signed permutation",
        ),
        (lambda: SignedPermutation("A", (-1, 2)), ContractViolation, "type A elements change no signs"),
        (
            lambda: SignedPermutation("D", (-1, 2)),
            ContractViolation,
            "type D elements change an even number of signs",
        ),
        (lambda: SignedPermutation("E", (1, 2)), ContractViolation, "unknown family 'E'"),
        (lambda: Clan((0, 0)), ContractViolation, "bad clan symbol 0"),
        (lambda: Clan(("x",)), ContractViolation, "bad clan symbol 'x'"),
        (lambda: Clan((1, "+")), ContractViolation, "number 1 appears 1 times"),
        (lambda: InvolutionOrbit((2, 1), "x"), ContractViolation, "component tag must be + or -"),
        (
            lambda: InvolutionOrbit((1, 2), "+"),
            ContractViolation,
            "only fixed-point-free involutions split",
        ),
    ],
)
def test_invalid_arguments_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_keyword_construction_and_defaults():
    assert SymmetricPair(descriptor="A:so", n=2) == SymmetricPair("A:so", 2, 0, 0)
    kind = KINDS["A:so"]
    assert (kind.restriction, kind.clan_rule, kind.inner_class) == ("fold", None, None)
    assert KINDS["A:glpq"].restriction == "identity" and KINDS["A:glpq"].form == PQ
    assert KINDS["C:gl"].form == RANK and KINDS["C:gl"].inner_class.doubled


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clan_swap_matches_validating_constructor(n):
    # swap, replace and the clan generators build their mates without
    # validation; on every clan node of the pairs of rank n, the validating
    # constructor, every swap and every fresh pair over two sign positions
    # agree with the former renumbering of the printed symbols, and every
    # raised target (the noncompact ones come from replace) equals the
    # validating Clan
    swaps = fresh = targets = 0
    for pair in pairs_of_rank(n):
        if not pair.is_clan_case():
            continue
        for param in enumerate_orbits(pair):
            clan = param
            assert clan == Clan(clan.symbols) and type(clan.mates) is tuple
            assert clan.symbols == canonical_symbols(clan.symbols)
            for i, j in itertools.combinations(range(1, len(clan) + 1), 2):
                symbols = list(clan.symbols)
                symbols[i - 1], symbols[j - 1] = symbols[j - 1], symbols[i - 1]
                got = clan.swap(i, j)
                assert got.symbols == canonical_symbols(symbols)
                assert got == Clan(symbols) and type(got.mates) is tuple
                swaps += 1
                if isinstance(clan.mates[i - 1], str) and isinstance(clan.mates[j - 1], str):
                    label = max((s for s in clan.symbols if isinstance(s, int)), default=0) + 1
                    symbols = list(clan.symbols)
                    symbols[i - 1] = symbols[j - 1] = label
                    assert _fresh_pair(clan, (i, j)).symbols == canonical_symbols(symbols)
                    fresh += 1
            for i in range(1, pair.num_simple_roots() + 1):
                status = classify_simple_root(pair, param, i)
                if status.kind.startswith("noncompact"):
                    got = status.target
                    assert got == Clan(got.symbols) and type(got.mates) is tuple
                    targets += 1
    assert swaps > 0 and fresh > 0 and targets > 0
