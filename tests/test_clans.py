import math

import pytest
from oracles import clans_reference, is_anti_reflexive, is_skew_symmetric, is_symmetric

from korbits.clans import Clan, enumerate_clans
from korbits.errors import ContractViolation, UsageError


def test_canonicalize_renumbers_by_first_occurrence():
    assert Clan([5, 7, 5, 7]).symbols == (1, 2, 1, 2)
    assert Clan(["+", "-"]).symbols == ("+", "-")
    assert Clan([2, 1, 1, 2]).symbols == (1, 2, 2, 1)


def test_clan_is_stored_by_its_mates():
    # any numbering names the same clan; each position holds its sign or
    # the position of its partner
    clan = Clan(("+", 7, 5, 7, 5, "-"))
    assert clan.mates == ("+", 4, 5, 2, 3, "-") and clan == Clan(("+", 1, 2, 1, 2, "-"))
    assert Clan((2, 2)) == Clan((1, 1)) and hash(Clan((2, 2))) == hash(Clan((1, 1)))
    assert str(clan) == "(+,1,2,1,2,-)"
    assert clan.swap(2, 3).mates == ("+", 5, 4, 3, 2, "-")
    assert clan.swap(1, 2).mates == (4, "+", 5, 1, 3, "-")


def test_canonicalize_idempotent():
    for clan in enumerate_clans(2, 2):
        assert Clan(clan.symbols) == clan


def test_rejects_unpaired_numbers():
    with pytest.raises(ContractViolation):
        Clan([1, "+", "-"])
    with pytest.raises(ContractViolation):
        Clan([1, 1, 1, "+"])


def _clan_count(p, q):
    # independent count: choose pair positions, match them, place signs
    n = p + q
    total = 0
    for k in range(min(p, q) + 1):
        pairings = math.factorial(2 * k) // (2 ** k * math.factorial(k))
        total += (
            math.comb(n, 2 * k)
            * pairings
            * math.comb(n - 2 * k, p - k)
        )
    return total


def test_enumerate_counts_match_formula():
    for p in range(0, 5):
        for q in range(0, 5):
            if 0 < p + q <= 7:
                assert len(enumerate_clans(p, q)) == _clan_count(p, q)


def test_enumerate_known_sizes():
    assert len(enumerate_clans(2, 2)) == 21
    assert len(enumerate_clans(1, 0)) == 1
    # (2,1) has six clans (three sign strings, three pair placements);
    # ten is the (3,1) count
    assert len(enumerate_clans(2, 1)) == 6
    assert len(enumerate_clans(3, 1)) == 10


def test_front_parity_even():
    # minus signs plus complete pairs among the first half: the prefixes of
    # (1,+,1,-) count 0, 0, 1 and 2, each the front half of a clan here
    fronts = {"(1,1)": 0, "(1,+,1,-)": 0, "(1,+,1,-,+,-)": 1, "(1,+,1,-,+,-,+,-)": 2}
    for text, count in fronts.items():
        assert Clan.parse(text).front_parity_even() is (count % 2 == 0), text
    # a pair counts once, and only when both ends are in the front
    assert Clan.parse("(1,1,+,+)").front_parity_even() is False
    assert Clan.parse("(+,+,1,1)").front_parity_even() is True
    assert Clan.parse("(-,1,1,-)").front_parity_even() is False


def test_symmetry_predicates():
    both = Clan.parse("(1,2,1,2)")
    assert is_symmetric(both) and is_skew_symmetric(both)
    skew = Clan.parse("(+,+,-,-)")
    assert not is_symmetric(skew) and is_skew_symmetric(skew)
    assert is_symmetric(Clan.parse("(+,-,+)"))


def test_symmetry_consistency_under_reversal():
    for clan in enumerate_clans(2, 3):
        if is_symmetric(clan):
            assert Clan(clan.symbols[::-1]) == clan


def test_mirror_generation_matches_filtered_enumeration():
    # generate-and-filter over all clans is the reference for the
    # mirror-aware generator
    for size in range(11):
        for a in range(size + 1):
            b = size - a
            plain = enumerate_clans(a, b)
            anti = [c for c in plain if is_anti_reflexive(c)]
            assert enumerate_clans(a, b, anti_reflexive=True) == anti
            for mirror, keep in (("symmetric", is_symmetric), ("skew", is_skew_symmetric)):
                want = [c for c in plain if keep(c)]
                assert enumerate_clans(a, b, mirror=mirror) == want
                want = [c for c in want if is_anti_reflexive(c)]
                assert enumerate_clans(a, b, mirror=mirror, anti_reflexive=True) == want


def test_generation_matches_the_reference_in_every_mode():
    # the plain mode shares the generator's fill with the mirror modes, so
    # every mode is checked against clans built without that fill
    keeps = {None: lambda c: True, "symmetric": is_symmetric, "skew": is_skew_symmetric}
    for size in range(9):
        for a in range(size + 1):
            reference = clans_reference(a, size - a)
            for mirror, keep in keeps.items():
                want = [c for c in reference if keep(c)]
                assert enumerate_clans(a, size - a, mirror=mirror) == want
                want = [c for c in want if is_anti_reflexive(c)]
                assert enumerate_clans(a, size - a, mirror=mirror, anti_reflexive=True) == want


def test_enumerate_rejects_unknown_mirror():
    with pytest.raises(ContractViolation):
        enumerate_clans(2, 2, mirror="rotated")


def test_position_involution():
    # the 2-cycles are the mate-position pairs; count reads them
    assert Clan.parse("(1,-,+,-,1)").position_involution().cycle_string() == "(1,5)"
    assert Clan.parse("(1,2,-,1,2)").position_involution().cycle_string() == "(1,4)(2,5)"
    assert Clan.parse("(+,-,+)").position_involution().cycle_string() == "id"


def test_parse_rejects_garbage():
    with pytest.raises(UsageError):
        Clan.parse("(+,?,-)")
    with pytest.raises(UsageError):
        Clan.parse("")
    # a digit that is no decimal digit is named as such, not as a length
    with pytest.raises(UsageError, match="clan number must be a decimal integer, got '\u00b2'"):
        Clan.parse("(\u00b2,\u00b2,+)")
    with pytest.raises(UsageError, match="clan number of 5000 digits is too long"):
        Clan.parse(f"({'9' * 5000},{'9' * 5000})")
