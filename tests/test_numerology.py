"""Closed-form invariants: expected dimensions, verdicts, nodal-curve bounds."""

import random
import time

import pytest

from pencillab import (
    RamificationProfile,
    ResourceLimit,
    RiemannHurwitzViolation,
    VerdictTag,
    adjusted_rho,
    brill_noether_number,
    delta_zero,
    expected_codimension,
    expected_pencil_dimension,
    grassmannian_pencil_count,
    hurwitz_dimension,
    hurwitz_to_moduli_verdict,
    profile_report,
    severi_alpha,
    severi_nonempty,
    simple_branch_count,
)


def random_profiles(count, seed=0):
    """Valid profiles with small parameters, rejection-sampled."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = rng.randint(0, 6)
        k = rng.randint(2, 6)
        n = rng.randint(0, 4)
        e = tuple(rng.randint(2, k) for _ in range(n))
        try:
            out.append(RamificationProfile(g, k, e))
        except RiemannHurwitzViolation:
            continue
    return out


def test_brill_noether_values():
    assert brill_noether_number(3, 1, 2) == -1
    assert brill_noether_number(5, 1, 3) == -1
    for k in range(2, 9):
        assert brill_noether_number(2 * k - 2, 1, k) == 0


def test_brill_noether_matches_formula():
    rng = random.Random(1)
    for _ in range(50):
        g, r, d = rng.randint(0, 20), rng.randint(1, 4), rng.randint(0, 20)
        assert brill_noether_number(g, r, d) == g - (r + 1) * (g - d + r)


def test_brill_noether_rank_one_is_2d_minus_2_minus_g():
    for g in range(0, 15):
        for d in range(0, 15):
            assert brill_noether_number(g, 1, d) == 2 * d - 2 - g


def test_adjusted_rho_examples():
    assert adjusted_rho(RamificationProfile(0, 3, (3, 3))) == 0
    assert adjusted_rho(RamificationProfile(1, 2, (2,))) == 0
    assert adjusted_rho(RamificationProfile(3, 2, (2, 2))) == -3


def test_adjusted_rho_decomposition():
    for prof in random_profiles(60):
        expected = brill_noether_number(prof.g, 1, prof.k) - sum(ei - 1 for ei in prof.e)
        assert adjusted_rho(prof) == expected


def test_appending_a_simple_marked_point_drops_rho_by_one():
    for prof in random_profiles(40, seed=3):
        try:
            bigger = RamificationProfile(prof.g, prof.k, prof.e + (2,))
        except RiemannHurwitzViolation:
            continue
        assert adjusted_rho(bigger) == adjusted_rho(prof) - 1


def test_total_ramification_two_point_identity():
    # rho-tilde of (g, k) with full ramification at two points is -g
    for g in range(0, 12):
        for k in range(2, 12):
            assert adjusted_rho(RamificationProfile(g, k, (k, k))) == -g


def test_simple_branch_count_examples():
    assert simple_branch_count(RamificationProfile(0, 3, (3, 3))) == 0
    assert simple_branch_count(RamificationProfile(1, 2, ())) == 4
    assert simple_branch_count(RamificationProfile(0, 2, ())) == 2


def test_simple_branch_count_nonnegative():
    for prof in random_profiles(60, seed=5):
        assert simple_branch_count(prof) >= 0


def test_profile_validation():
    with pytest.raises(ValueError):
        RamificationProfile(-1, 2, ())
    with pytest.raises(ValueError):
        RamificationProfile(0, 1, ())
    with pytest.raises(ValueError):
        RamificationProfile(0, 2, (1,))
    with pytest.raises(ValueError):
        RamificationProfile(0, 2, (3,))
    with pytest.raises(RiemannHurwitzViolation):
        RamificationProfile(0, 2, (2, 2, 2))


def test_hurwitz_dimension_examples():
    assert hurwitz_dimension(RamificationProfile(1, 2, ())) == 1
    assert hurwitz_dimension(RamificationProfile(0, 3, (3, 3))) == -1
    assert hurwitz_dimension(RamificationProfile(2, 2, ())) == 3


def test_expected_codimension_and_pencil_dimension():
    prof = RamificationProfile(3, 2, (2, 2))
    assert expected_codimension(prof) == 3
    assert expected_pencil_dimension(prof) == 0
    prof = RamificationProfile(0, 3, (3, 3))
    assert expected_codimension(prof) == 0
    assert expected_pencil_dimension(prof) == 0
    for g in range(0, 8):
        for k in range(2, 8):
            assert expected_codimension(RamificationProfile(g, k, (k, k))) == g


def test_verdict_examples():
    v = hurwitz_to_moduli_verdict(RamificationProfile(1, 2, (2,)))
    assert v.tag is VerdictTag.DOMINANT
    assert (v.rho_tilde, v.n_plus_rho) == (0, 1)

    v = hurwitz_to_moduli_verdict(RamificationProfile(4, 2, (2, 2)))
    assert v.tag is VerdictTag.GENERICALLY_FINITE
    assert (v.rho_tilde, v.n_plus_rho) == (-4, -2)

    v = hurwitz_to_moduli_verdict(RamificationProfile(2, 2, (2, 2, 2)))
    assert v.tag is VerdictTag.UNKNOWN
    assert v.rho_tilde == -3


def test_verdict_tag_strings():
    assert VerdictTag.DOMINANT.value == "Dominant"
    assert VerdictTag.GENERICALLY_FINITE.value == "GenericallyFinite"
    assert VerdictTag.UNKNOWN.value == "Unknown"


def test_verdict_unknown_exactly_below_minus_g():
    for prof in random_profiles(80, seed=7):
        v = hurwitz_to_moduli_verdict(prof)
        assert (v.tag is VerdictTag.UNKNOWN) == (v.rho_tilde < -prof.g)
        if v.tag is not VerdictTag.UNKNOWN:
            assert (v.tag is VerdictTag.DOMINANT) == (v.n_plus_rho >= 0)


def test_severi_nonempty_examples():
    assert severi_nonempty(5, 1, 2) is False
    assert severi_nonempty(5, 2, 2) is True
    assert severi_nonempty(3, 0, 3) is True
    assert severi_nonempty(3, 0, 2) is False


def test_severi_alpha_is_floor():
    for p in range(2, 15):
        for k in range(2, 6):
            for delta in range(0, p):
                assert severi_alpha(p, delta, k) == (p - delta) // (2 * (k - 1))


def test_severi_input_validation():
    with pytest.raises(ValueError):
        severi_nonempty(5, 5, 2)
    with pytest.raises(ValueError):
        severi_nonempty(5, -1, 2)
    with pytest.raises(ValueError):
        severi_nonempty(1, 0, 2)


def test_severi_formulations_agree_small():
    # severi_nonempty evaluates two equivalent inequalities and raises on
    # disagreement, so exercising it is the cross-check
    for p in range(2, 26):
        for delta in range(0, p):
            for k in range(2, 7):
                severi_nonempty(p, delta, k)


def test_delta_zero_values():
    assert delta_zero(3, 2) == 1
    assert delta_zero(4, 2) == 1
    assert delta_zero(5, 3) == 1
    assert delta_zero(5, 2) == 2


def test_delta_zero_is_least_and_upward_closed():
    for p in range(2, 20):
        for k in range(2, 6):
            d0 = delta_zero(p, k)
            assert d0 is not None
            for delta in range(0, d0):
                assert not severi_nonempty(p, delta, k)
            for delta in range(d0, p):
                assert severi_nonempty(p, delta, k)


def _delta_zero_scan(p, k):
    """Least nonempty delta by linear scan: the oracle for delta_zero's binary search."""
    return next((d for d in range(p) if severi_nonempty(p, d, k)), None)


def test_delta_zero_matches_linear_scan():
    for p in range(2, 400):
        for k in range(2, 12):
            assert delta_zero(p, k) == _delta_zero_scan(p, k), (p, k)


def test_delta_zero_at_the_input_cap_is_prompt():
    start = time.perf_counter()
    d0 = delta_zero(2**31, 3)
    assert time.perf_counter() - start < 0.5
    assert not severi_nonempty(2**31, d0 - 1, 3)
    assert severi_nonempty(2**31, d0, 3)


def test_delta_zero_edge_cases():
    assert delta_zero(0, 2) is None
    assert delta_zero(-7, 2) is None
    with pytest.raises(ValueError):
        delta_zero(1, 2)
    with pytest.raises(ValueError):
        delta_zero(5, 1)


def test_profile_report_shape():
    rep = profile_report(RamificationProfile(4, 2, (2, 2)))
    assert rep == {
        "g": 4,
        "k": 2,
        "n": 2,
        "e": [2, 2],
        "rho": -2,
        "rho_tilde": -4,
        "r": 8,
        "hurwitz_dim": 7,
        "codim": 4,
        "verdict": "GenericallyFinite",
    }


def test_grassmannian_count_refuses_by_its_digit_count():
    from pencillab.numerology import MAX_COUNT_DIGITS

    assert grassmannian_pencil_count(3, 101) == 105111206
    # about 2(k - 1) log10 q digits: 99720 at k = 59000 over F_7, 100060 at 59201
    count = grassmannian_pencil_count(59000, 7)
    assert 10**99719 < count < 10**MAX_COUNT_DIGITS
    for k, q in [(59201, 7), (4294967311, 2), (10**400, 3)]:
        with pytest.raises(ResourceLimit, match="digits"):
            grassmannian_pencil_count(k, q)
