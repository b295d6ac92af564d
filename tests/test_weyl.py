import pytest
from oracles import (
    absolute,
    compose,
    coxeter_length,
    enumerate_group,
    group_images_reference,
    identity,
    inverse,
    is_identity,
    l_p,
    sign_stats,
    times_generator,
    unequal_rank_stats,
)

from korbits.errors import ContractViolation, UsageError
from korbits.pairs import parse_pair_spec
from korbits.weyl import (
    SignedPermutation,
    group_images,
    group_order,
    parse_cycles,
    restriction_map,
)


def perm(family, *images):
    return SignedPermutation(family, tuple(images))


def test_group_orders():
    assert sum(1 for _ in enumerate_group("A", 4)) == 24 == group_order("A", 4)
    assert sum(1 for _ in enumerate_group("BC", 2)) == 8 == group_order("BC", 2)
    assert sum(1 for _ in enumerate_group("D", 3)) == 24 == group_order("D", 3)


@pytest.mark.parametrize("family", ["A", "BC", "D"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerated_elements_pass_validation(family, n):
    # enumerate_group skips the constructor checks; every element must
    # still pass them, and the elements must be distinct
    elements = list(enumerate_group(family, n))
    assert [SignedPermutation(family, w.images) for w in elements] == elements
    assert len({w.images for w in elements}) == group_order(family, n)


@pytest.mark.parametrize("family", ["A", "BC", "D"])
def test_group_images_keep_the_element_order(family):
    # localization walks the image tuples; a witness it names must be the
    # element enumerate_group reaches first, in the former order
    for n in range(6):
        images = list(group_images(family, n))
        assert images == [w.images for w in enumerate_group(family, n)]
        assert images == list(group_images_reference(family, n))


def test_group_laws_small():
    elements = list(enumerate_group("BC", 2))
    for w in elements:
        assert is_identity(compose(w, inverse(w)))
    a, b, c = elements[1], elements[3], elements[5]
    assert compose(compose(a, b), c).images == compose(a, compose(b, c)).images


def test_composition_stays_in_one_family():
    with pytest.raises(ContractViolation, match="cannot compose D with A"):
        compose(perm("D", 2, 1, 3), perm("A", 2, 1, 3))
    assert compose(perm("D", 2, 1, 3), perm("D", 2, 1, 3)) == identity("D", 3)


def test_validation():
    with pytest.raises(ContractViolation):
        perm("A", 1, -2, 3)
    with pytest.raises(ContractViolation):
        perm("D", -1, 2, 3)
    with pytest.raises(ContractViolation):
        perm("BC", 1, 1)


def test_length_examples():
    assert coxeter_length(identity("A", 5)) == 0
    assert coxeter_length(perm("A", 2, 3, 1, 4)) == 2
    assert coxeter_length(perm("A", 3, 2, 1)) == 3


@pytest.mark.parametrize("family,n", [("A", 4), ("BC", 3), ("D", 3)])
def test_length_changes_by_one_at_generators(family, n):
    top = n - 1 if family == "A" else n
    for w in enumerate_group(family, n):
        for i in range(1, top + 1):
            assert abs(coxeter_length(times_generator(w, i)) - coxeter_length(w)) == 1


def test_absolute_value():
    assert absolute(perm("BC", 1, 3, -2)).images == (1, 3, 2)
    assert absolute(perm("BC", -2, -4, 1, 3, -5)).images == (2, 4, 1, 3, 5)


def test_embed_sign_flip_rank_one():
    w = perm("BC", -1)
    assert w.embed_as_permutation(3).images == (3, 2, 1)


def test_embed_identity():
    w = identity("BC", 3)
    assert is_identity(w.embed_as_permutation(6))


def test_embed_swap_with_negation():
    w = perm("BC", -1, 2)
    assert w.embed_as_permutation(4).images == (4, 2, 3, 1)


@pytest.mark.parametrize("family,n,size", [("BC", 2, 4), ("BC", 2, 5), ("BC", 3, 6), ("D", 3, 6)])
def test_embed_is_homomorphism(family, n, size):
    elements = list(enumerate_group(family, n))
    for a in elements[::3]:
        for b in elements[::5]:
            lhs = compose(a, b).embed_as_permutation(size)
            rhs = compose(a.embed_as_permutation(size), b.embed_as_permutation(size))
            assert lhs.images == rhs.images


def test_l_p_examples():
    assert l_p(identity("A", 4), 2) == 0
    assert l_p(perm("A", 1, 3, 2, 4), 2) == 1
    assert l_p(perm("A", 3, 4, 1, 2), 2) == 4


def test_l_p_constant_on_block_cosets():
    # multiplying by block permutations preserves the statistic
    import itertools

    n, p = 4, 2
    for w in enumerate_group("A", n):
        base = l_p(w, p)
        for left in itertools.permutations(range(1, p + 1)):
            for right in itertools.permutations(range(p + 1, n + 1)):
                sigma = SignedPermutation("A", tuple(left) + tuple(right))
                assert l_p(compose(sigma, w), p) == base


def test_sign_stats():
    neg, f, g = sign_stats(identity("BC", 3))
    assert (neg, f, g) == ((), 0, 0)
    neg, f, g = sign_stats(perm("BC", -3, -2, 1))
    assert neg == (1, 2) and f == 2 and g == 3


def test_unequal_rank_stats():
    i_set, c_map, f = unequal_rank_stats(perm("A", 1, 3, 2), 1)
    assert i_set == (2,) and c_map == {2: 0} and f == 0
    i_set, c_map, f = unequal_rank_stats(perm("A", 3, 1, 2), 1)
    assert i_set == (1,) and c_map == {1: 1} and f == 1
    with pytest.raises(ContractViolation):
        unequal_rank_stats(perm("A", 2, 1, 3), 1)  # does not send n to p+1


def test_restriction_maps():
    pair = parse_pair_spec("A:glpq:2,2")
    assert restriction_map(pair) == ((1, 1), (1, 2), (1, 3), (1, 4))
    pair = parse_pair_spec("A:so:5")
    assert restriction_map(pair) == ((1, 1), (1, 2), None, (-1, 2), (-1, 1))
    pair = parse_pair_spec("D:oo-odd:1,2")
    assert restriction_map(pair) == ((1, 1), None, (1, 2))


def test_cycle_string_round_trip():
    w = parse_cycles("(1,3)(2,4)", 4)
    assert w.cycle_string() == "(1,3)(2,4)"
    assert is_identity(parse_cycles("id", 3))


def test_cycle_entries_are_decimal_numerals():
    # spaces around an entry are allowed, as in the clan grammar; a sign or
    # an underscore, which int() would read, is not
    assert parse_cycles("( 1 , 3 )", 3) == parse_cycles("(1,3)", 3)
    for text in ("(+1,3)", "(1_0,3)", "(1,-3)", "(1,,3)"):
        with pytest.raises(UsageError, match="cycle entry must be a decimal integer"):
            parse_cycles(text, 3)
