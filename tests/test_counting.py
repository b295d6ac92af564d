import pytest
from oracles import compose, enumerate_group, is_identity, is_symmetric

import korbits.counting
from korbits.cli import main
from korbits.counting import _involutions, count_report
from korbits.errors import UsageError


def test_b2_fiber_example():
    rows = {r.involution: r for r in count_report("B", 2)}
    row = rows["(1,5)"]
    assert row.clan_count == 2 and row.fiber_count == 2


def test_c_case_split():
    rows = {r.involution: r for r in count_report("C", 2)}
    # a mirrored swap keeps only the skew clans
    mirrored = rows["(1,4)(2,3)"]
    assert mirrored.fiber_count == 2 ** 0
    # no mirrored swap doubles the count
    open_swap = rows["(1,3)(2,4)"]
    assert open_swap.fiber_count == 2 ** 1
    identity = rows["id"]
    assert identity.fiber_count == 2 ** 3  # k = 2 fixed points, doubled


@pytest.mark.parametrize("name", ["B", "C", "D-compact", "D-unequal"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counts_match_fibers(name, n):
    rows = count_report(name, n)
    assert rows, "no twisted involutions found"
    assert all(r.ok for r in rows)


def test_totals_are_partitioned_by_fibers():
    rows = count_report("B", 3)
    total = sum(r.clan_count for r in rows)
    from korbits.clans import enumerate_clans

    want = sum(
        1
        for p in range(4)
        for c in enumerate_clans(2 * p, 2 * (3 - p) + 1)
        if is_symmetric(c)
    )
    assert total == want


def test_unknown_inner_class():
    with pytest.raises(UsageError):
        count_report("E", 2)


@pytest.mark.parametrize("family", ["BC", "D"])
@pytest.mark.parametrize("parity", ["any", "odd"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_involutions_match_squaring_every_element(family, parity, n):
    # reference: square every group element and keep the identities
    expected = [
        w
        for w in enumerate_group(family, n)
        if is_identity(compose(w, w))
        and (parity == "any" or w.sign_changes() % 2)
    ]
    assert list(_involutions(family, n, parity)) == expected


def test_stray_clan_is_reported_with_its_involution(capsys, monkeypatch):
    # drop the identity from the enumerated inner class: the clans of all
    # signs sit over it, and the first of them is named
    def without_identity(*args, **kwargs):
        return [w for w in _involutions(*args, **kwargs) if not is_identity(w)]

    monkeypatch.setattr(korbits.counting, "_involutions", without_identity)
    assert main(["count", "B:2"]) == 3
    assert capsys.readouterr().err == (
        "internal error: inner class B:2: clan (-,-,-,-,-) sits over the involution id,"
        " outside the enumerated inner class\n"
    )
