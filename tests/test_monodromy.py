"""Cycle tuples realizing ramification profiles over the line."""

import itertools

import pytest

from pencillab import (
    MonodromyTuple,
    Permutation,
    ProfileInfeasible,
    ResourceLimit,
    construct_tuple,
    count_tuples,
    enumerate_tuples,
    is_balanced,
    pad_profile,
    verify_tuple,
)


def balanced_profiles(k, max_n):
    """All ordered tuples e with entries in 2..k and sum(e_i - 1) = 2(k - 1)."""
    target = 2 * (k - 1)
    out = []

    def extend(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_n:
            return
        for ei in range(2, k + 1):
            if ei - 1 <= remaining:
                extend(prefix + [ei], remaining - (ei - 1))

    extend([], target)
    return out


def test_base_case_k3():
    mt = construct_tuple(3, (2, 2, 2, 2))
    assert mt.to_json_dict() == {"k": 3, "cycles": [[1, 2], [2, 3], [2, 3], [1, 2]]}


def test_base_case_is_mirrored_adjacent_transpositions():
    for k in range(2, 7):
        mt = construct_tuple(k, (2,) * (2 * k - 2))
        cycles = mt.to_json_dict()["cycles"]
        assert cycles[: k - 1] == [[j, j + 1] for j in range(1, k)]
        assert cycles[k - 1 :] == cycles[: k - 1][::-1]


def test_smallest_case():
    assert construct_tuple(2, (2, 2)).to_json_dict()["cycles"] == [[1, 2], [1, 2]]


def test_two_full_cycles():
    mt = construct_tuple(3, (3, 3))
    assert mt.to_json_dict()["cycles"] == [[1, 2, 3], [1, 3, 2]]
    rep = verify_tuple(mt)
    assert rep.product_is_identity and rep.transitive and rep.genus == 0


def test_construct_preserves_caller_order():
    mt = construct_tuple(4, (2, 4, 2, 2))
    assert mt.orders == (2, 4, 2, 2)
    rep = verify_tuple(mt)
    assert rep.product_is_identity and rep.transitive
    assert rep.orders == (2, 4, 2, 2)


def test_construct_rejects_unbalanced():
    with pytest.raises(ProfileInfeasible):
        construct_tuple(3, (2, 2))
    with pytest.raises(ProfileInfeasible):
        construct_tuple(3, (4, 4))


def test_pad_profile_examples():
    assert pad_profile(3, (3, 3)) == (3, 3)
    assert pad_profile(3, (3, 2)) == (3, 2, 2)
    assert pad_profile(4, (2, 2)) == (2, 2, 2, 2, 2, 2)
    with pytest.raises(ProfileInfeasible):
        pad_profile(2, (2, 2, 2))


def test_pad_profile_caps_k_as_construct_does():
    from pencillab.monodromy import MAX_CONSTRUCT_K

    k = MAX_CONSTRUCT_K
    assert pad_profile(k, (k,)) == (k,) + (2,) * (k - 1)
    with pytest.raises(ResourceLimit):
        pad_profile(k + 1, (2,))
    with pytest.raises(ProfileInfeasible):  # infeasible whatever its size
        pad_profile(k + 1, (k + 1,) * 3)


def test_tuple_caps_k_before_reading_its_cycles():
    from pencillab.monodromy import MAX_TUPLE_K

    def unread():
        raise AssertionError("the cycles were read")
        yield

    k = MAX_TUPLE_K
    mt = MonodromyTuple.from_json_dict({"k": k, "cycles": [[1, 2], [1, 2]]})
    assert verify_tuple(mt).product_is_identity
    with pytest.raises(ResourceLimit):
        MonodromyTuple(k + 1, unread())
    with pytest.raises(ResourceLimit):
        MonodromyTuple.from_json_dict({"k": 100000000000000000039, "cycles": []})


def test_pad_profile_always_balances():
    for k in range(2, 6):
        for n in range(0, 3):
            for e in itertools.product(range(2, k + 1), repeat=n):
                if sum(ei - 1 for ei in e) > 2 * (k - 1):
                    continue
                padded = pad_profile(k, e)
                assert padded[: len(e)] == tuple(e)
                assert is_balanced(k, padded)
                assert set(padded[len(e) :]) <= {2}


def test_verify_identity_transitive_genus():
    rep = verify_tuple(construct_tuple(3, (2, 2, 2, 2)))
    assert rep.product_is_identity
    assert rep.transitive
    assert rep.consecutive_nondisjoint
    assert rep.genus == 0


def test_verify_disjoint_transpositions():
    mt = MonodromyTuple(4, (Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3))))
    rep = verify_tuple(mt)
    assert not rep.product_is_identity
    assert not rep.transitive


def test_verify_positive_genus():
    # four transpositions on two symbols: identity product, genus 1 cover
    sigma = Permutation((2, 1))
    rep = verify_tuple(MonodromyTuple(2, (sigma,) * 4))
    assert rep.product_is_identity and rep.transitive
    assert rep.genus == 1


def test_enumerate_exact_counts():
    assert len(enumerate_tuples(2, (2, 2))) == 1
    assert len(enumerate_tuples(3, (2, 2))) == 0
    found = enumerate_tuples(3, (3, 3))
    assert len(found) == 2
    images = {tuple(p.images for p in mt.cycles) for mt in found}
    assert images == {((2, 3, 1), (3, 1, 2)), ((3, 1, 2), (2, 3, 1))}


def test_enumerate_members_verify():
    for mt in enumerate_tuples(4, (2, 2, 3, 3)):
        rep = verify_tuple(mt)
        assert rep.product_is_identity and rep.transitive
        assert rep.genus == 0


def test_enumerate_contains_construction():
    for k in range(2, 5):
        for e in balanced_profiles(k, max_n=5):
            if len(e) > 6:
                continue
            built = construct_tuple(k, e)
            assert built in enumerate_tuples(k, e)


def test_exhaustive_mode_agrees_with_pruned():
    cases = [(3, (2, 2, 2, 2)), (3, (3, 3)), (4, (4, 4)), (4, (2, 2, 3, 3))]
    for k, e in cases:
        assert enumerate_tuples(k, e, exhaustive=True) == enumerate_tuples(k, e)


def test_count_matches_enumeration():
    for k, e in [(2, (2, 2)), (3, (3, 3)), (3, (2, 2, 2, 2)), (4, (3, 3, 2))]:
        assert count_tuples(k, e) == len(enumerate_tuples(k, e))
    for k in range(2, 6):
        for e in balanced_profiles(k, max_n=5):
            assert count_tuples(k, e) == len(enumerate_tuples(k, e)), (k, e)


def test_fewer_than_two_cycles_give_nothing():
    for e in [(), (2,), (3,)]:
        assert enumerate_tuples(3, e) == enumerate_tuples(3, e, exhaustive=True) == []
        assert count_tuples(3, e) == 0


def test_genus_zero_iff_balanced():
    for k, e in [(2, (2, 2)), (2, (2, 2, 2, 2)), (3, (3, 3)), (3, (3, 3, 2, 2))]:
        for mt in enumerate_tuples(k, e):
            assert (verify_tuple(mt).genus == 0) == is_balanced(k, e)


def test_enumeration_deterministic():
    a = enumerate_tuples(3, (2, 2, 2, 2))
    b = enumerate_tuples(3, (2, 2, 2, 2))
    assert a == b
    keys = [tuple(p.images for p in mt.cycles) for mt in a]
    assert keys == sorted(keys)


def test_resource_guard():
    with pytest.raises(ResourceLimit):
        enumerate_tuples(7, (2,) * 12)
    with pytest.raises(ResourceLimit):
        enumerate_tuples(4, (2,) * 7)


def test_permutation_composition_is_left_to_right():
    a = Permutation((2, 1, 3))  # swaps 1,2
    b = Permutation((1, 3, 2))  # swaps 2,3
    assert a.then(b).images == (3, 1, 2)  # 1 -> 2 -> 3


def test_tuple_json_round_trip():
    mt = construct_tuple(4, (4, 4))
    again = MonodromyTuple.from_json_dict(mt.to_json_dict())
    assert again == mt


@pytest.mark.parametrize("data", [
    {"k": 3, "cycles": None}, {"k": 3, "cycles": {}}, {"k": 3, "cycles": "ab"},
    {"k": 3, "cycles": [1]}, {"k": 3, "cycles": [[1, 2], 3]}, {"k": 3, "cycles": [["1", "2"]]},
    {"k": 3, "cycles": [[1.5, 2]]}, {"k": 3, "cycles": [[True, 2]]},
    {"k": 0, "cycles": []}, {"k": "3", "cycles": [[1, 2]]}, {"k": True, "cycles": []},
])
def test_tuple_json_of_the_wrong_shape_is_refused(data):
    with pytest.raises(ValueError):
        MonodromyTuple.from_json_dict(data)


def test_cycle_needs_integer_symbols_and_a_positive_degree():
    assert Permutation.from_cycle((1, 2), 2) == Permutation((2, 1))
    with pytest.raises(ValueError):
        MonodromyTuple(k=0, cycles=())
    for symbols, k in [((1, True), 3), ([1.0, 2], 3), ((), 0), ("12", 3)]:
        with pytest.raises(ValueError):
            Permutation.from_cycle(symbols, k)
