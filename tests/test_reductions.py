import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from hyperreduce.errors import (
    DegenerateNodesError,
    DegenerateParametersError,
    DomainError,
)
from hyperreduce.reductions import (
    bateman_next,
    divided_difference,
    expand_main,
    f21_neg_unit_bateman_rhs,
    f21_neg_unit_direct_rhs,
    f32_half_minus_signed_rhs,
    f32_half_minus_unsigned_rhs,
    h_derivative,
    pfp_polynomial_coeffs,
    psi_sum_alternating,
    psi_sum_closed,
    ratio_derivative,
    reduce_corollary,
    require_distinct,
    shifted_pfp_damped,
)
from hyperreduce.series import PFQSpec, Status, eval_pfq
from hyperreduce.special import bateman_g, complete_beta, pochhammer

mp.mp.dps = 30


# -- psi sum lemmas ----------------------------------------------------------


def _psi_sum_direct(b: float, c: float, n: int) -> float:
    total = 0.0
    for k in range(n + 1):
        total += (
            math.comb(n, k)
            * (-1.0) ** k
            * scipy.special.poch(b, k)
            / scipy.special.poch(c, k)
            * scipy.special.psi(b + k)
        )
    return total


def test_psi_sum_closed_n0():
    assert psi_sum_closed(0.9, 2.3, 0) == pytest.approx(scipy.special.psi(0.9), rel=1e-13)


def test_psi_sum_closed_random():
    rng = np.random.default_rng(30)
    for _ in range(60):
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.4, 4.0)
        n = int(rng.integers(0, 9))
        args = [1.0 + b - c, 1.0 + b - c - n]
        if abs(b - c) < 0.05:
            continue
        if any(x <= 0.05 and abs(x - round(x)) < 0.05 for x in args):
            continue
        assert psi_sum_closed(b, c, n) == pytest.approx(
            _psi_sum_direct(b, c, n), abs=1e-10
        )


def test_psi_sum_closed_rejects_equal_parameters():
    with pytest.raises(DegenerateParametersError):
        psi_sum_closed(1.0, 1.0, 2)


def test_psi_sum_alternating():
    assert psi_sum_alternating(1.0, 1) == pytest.approx(-1.0, rel=1e-14)
    rng = np.random.default_rng(31)
    for _ in range(40):
        b = rng.uniform(0.3, 4.0)
        n = int(rng.integers(1, 9))
        direct = sum(
            math.comb(n, k) * (-1.0) ** k * scipy.special.psi(b + k)
            for k in range(n + 1)
        )
        assert psi_sum_alternating(b, n) == pytest.approx(direct, abs=1e-11)
    with pytest.raises(DomainError):
        psi_sum_alternating(1.0, 0)


# -- Bateman recursion -------------------------------------------------------


def test_bateman_next_base():
    # G(1) = ln 2 and G(1) + G(2) = 1 force G(2) = 1 - ln 2.
    assert bateman_next(1.0, 0) == pytest.approx(1.0 - math.log(2.0), rel=1e-12)


def test_bateman_next_matches_direct():
    for a in (0.3, 0.8, 1.5, 2.5):
        for n in range(7):
            assert bateman_next(a, n) == pytest.approx(
                bateman_g(a + n + 1.0), abs=1e-10
            )


# -- the two terminating 2F1(-1) forms --------------------------------------


def test_neg_unit_forms_agree():
    rng = np.random.default_rng(32)
    for _ in range(60):
        a = rng.uniform(0.3, 4.0)
        n = int(rng.integers(0, 7))
        v1, _ = f21_neg_unit_bateman_rhs(a, n)
        v2, _ = f21_neg_unit_direct_rhs(a, n)
        assert v1 == pytest.approx(v2, abs=1e-11)


# -- derivative lemmas -------------------------------------------------------


def test_h_derivative_n0():
    # zeroth derivative: z^g B_z(alpha, beta)
    z, alpha, beta, g = 0.4, 1.3, 2.1, 0.7
    expected = z**g * float(mp.betainc(alpha, beta, 0, z))
    assert h_derivative(0, alpha, beta, g, z) == pytest.approx(expected, rel=1e-12)


def test_h_derivative_matches_mp_diff():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 25:
        n = int(rng.integers(0, 4))
        alpha = rng.uniform(0.4, 3.0)
        beta = rng.uniform(-2.0, 3.0)
        g = rng.uniform(-1.5, 2.5)
        z = rng.uniform(0.15, 0.85)
        f = lambda t: mp.mpf(t) ** g * mp.betainc(alpha, beta, 0, t)
        oracle = float(mp.diff(f, z, n))
        value = h_derivative(n, alpha, beta, g, z)
        assert value == pytest.approx(oracle, rel=1e-6, abs=1e-9)
        checked += 1


def test_h_derivative_at_unity():
    # collapses to (-1)^n (-g)_n B(alpha, beta) when beta > n
    for n, alpha, beta, g in ((2, 1.3, 3.5, 0.4), (1, 0.8, 2.2, 1.7), (3, 2.0, 4.5, -0.6)):
        expected = (-1.0) ** n * pochhammer(-g, n) * complete_beta(alpha, beta)
        assert h_derivative(n, alpha, beta, g, 1.0) == pytest.approx(expected, rel=1e-10)
    with pytest.raises(DomainError):
        h_derivative(3, 1.3, 2.5, 0.4, 1.0)  # beta <= n
    with pytest.raises(DomainError):
        h_derivative(1, -0.5, 2.5, 0.4, 0.5)  # alpha <= 0
    with pytest.raises(DomainError):
        h_derivative(1, 1.0, 2.5, 0.4, 1.5)  # z out of range


def test_ratio_derivative_hand_value():
    # d/dz [z^2/(1-z)] at 1/2: (2z - z^2)/(1-z)^2 = 3
    assert ratio_derivative(1, 2.0, 1.0, 0.5) == pytest.approx(3.0, rel=1e-13)
    # m = 0: the function itself
    assert ratio_derivative(0, 1.7, 0.9, 0.3) == pytest.approx(
        0.3**1.7 / 0.7**0.9, rel=1e-13
    )


def test_ratio_derivative_matches_mp_diff():
    rng = np.random.default_rng(34)
    for _ in range(25):
        m = int(rng.integers(0, 5))
        alpha = rng.uniform(0.3, 3.0)
        beta = rng.uniform(-1.5, 3.0)
        z = rng.uniform(0.1, 0.9)
        f = lambda t: mp.mpf(t) ** alpha / (1 - mp.mpf(t)) ** beta
        oracle = float(mp.diff(f, z, m))
        assert ratio_derivative(m, alpha, beta, z) == pytest.approx(
            oracle, rel=1e-6, abs=1e-9
        )
    with pytest.raises(DomainError):
        ratio_derivative(1, 1.0, 1.0, 1.0)


# -- expansion / contraction of a contiguous pair ----------------------------


def test_expand_main_n0_is_identity():
    spec = PFQSpec([0.8], [1.7], 0.6)
    assert expand_main(spec, 1.2, 0).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-13
    )


def test_expand_main_examples():
    for spec, c, n in (
        (PFQSpec([0.8], [1.7], 0.6), 1.2, 2),
        (PFQSpec([0.5, 1.5], [2.5], -0.3), 0.9, 3),
    ):
        assert expand_main(spec, c, n).value == pytest.approx(
            eval_pfq(spec).value, rel=1e-10
        )
    with pytest.raises(DomainError):
        expand_main(PFQSpec([0.8], [1.7], 0.6), 1.2, -1)


def test_reduce_corollary_examples():
    c = 1.1
    spec = PFQSpec([0.7, c + 1.0], [1.9, c], 0.5)
    assert reduce_corollary(spec, c, 1).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-11
    )
    c = 0.8
    spec = PFQSpec([0.6, 1.4, c + 2.0], [2.2, c], -0.6)
    assert reduce_corollary(spec, c, 2).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-11
    )
    # n = 0: single term, exact
    spec = PFQSpec([0.7, 1.1], [1.9, 1.1], 0.5)
    assert reduce_corollary(spec, 1.1, 0).value == pytest.approx(
        eval_pfq(PFQSpec([0.7], [1.9], 0.5)).value, rel=1e-13
    )


def test_pair_sum_reports_inner_term_cap():
    # Near z = 1 the inner series stop at their cap; the sum must say so.
    res = expand_main(PFQSpec([0.5, 1.0], [1.5], 0.999999), 1.0, 1)
    assert res.status is Status.MAX_TERMS_REACHED
    res = reduce_corollary(PFQSpec([0.5, 1.0, 2.0], [1.5, 1.0], 0.999999), 1.0, 1)
    assert res.status is Status.MAX_TERMS_REACHED
    assert expand_main(PFQSpec([0.8], [1.7], 0.6), 1.2, 2).status is Status.CONVERGED


def test_reduce_corollary_missing_pair():
    with pytest.raises(DomainError):
        reduce_corollary(PFQSpec([0.7, 2.0], [1.9, 1.0], 0.5), 0.5, 1)


# -- polynomial form of pFp with integer-shifted upper parameters ------------


def test_pfp_polynomial_trivial():
    # e^{-z} 1F1(2;1;z) = 1 + z
    coeffs = pfp_polynomial_coeffs([1.0], [1], [-0.5, 0.2, 0.9])
    assert coeffs == pytest.approx([1.0, 1.0], abs=1e-12)


def test_pfp_polynomial_matches_laguerre():
    # e^{-z} 1F1(a+n;a;z) = (n!/(a)_n) L_n^(a-1)(-z)
    a, n = 2.0, 2
    nodes = [-0.8, -0.3, 0.1, 0.6]
    coeffs = pfp_polynomial_coeffs([a], [n], nodes)
    for z in (-0.9, 0.0, 0.7):
        poly = sum(c * z**j for j, c in enumerate(coeffs))
        expected = (
            math.factorial(n)
            / scipy.special.poch(a, n)
            * scipy.special.eval_genlaguerre(n, a - 1.0, -z)
        )
        assert poly == pytest.approx(expected, rel=1e-10)


def test_pfp_polynomial_divided_difference_vanishes():
    a = [1.3, 2.1]
    n = [1, 2]
    nodes = list(np.linspace(-1.0, 1.0, sum(n) + 2))
    values = [shifted_pfp_damped(a, n, x) for x in nodes]
    dd = divided_difference(nodes, values)
    assert abs(dd) <= 1e-8 * max(abs(v) for v in values)


def test_pfp_polynomial_validation():
    with pytest.raises(DomainError):
        pfp_polynomial_coeffs([1.0], [1], [0.0, 1.0])  # wrong node count
    with pytest.raises(DegenerateNodesError):
        pfp_polynomial_coeffs([1.0], [1], [0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        pfp_polynomial_coeffs([1.0, 2.0], [1], [0.0, 0.5, 1.0])  # length mismatch
    with pytest.raises(DegenerateNodesError):
        divided_difference([0.0, 0.0], [1.0, 2.0])


# -- the two printed variants of the shifted half-argument formula -----------


def test_half_minus_variants_differ_and_only_signed_matches():
    a, b, c, n, m = 0.7, 2.6, 1.4, 1, 2
    lhs = eval_pfq(
        PFQSpec([a, b - m, c + n], [(a + b + 1.0) / 2.0, c], 0.5), tol=1e-16
    ).value
    signed, _ = f32_half_minus_signed_rhs(a, b, c, n, m)
    unsigned, _ = f32_half_minus_unsigned_rhs(a, b, c, n, m)
    assert signed == pytest.approx(lhs, rel=1e-12)
    assert abs(unsigned - lhs) > 1e-3 * abs(lhs)


def test_half_minus_variants_coincide_at_m0():
    a, b, c = 0.7, 2.6, 1.4
    assert f32_half_minus_signed_rhs(a, b, c, 2, 0)[0] == pytest.approx(
        f32_half_minus_unsigned_rhs(a, b, c, 2, 0)[0], rel=1e-14
    )


def test_require_distinct():
    require_distinct([0.5, 1.5, 2.5])
    with pytest.raises(DegenerateParametersError):
        require_distinct([0.5, 0.5 + 1e-8])
