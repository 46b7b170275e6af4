import math

import numpy as np
import pytest

from caustica import (
    AiryKind,
    NegativeArgument,
    airy_ai,
    airy_ai_scaled,
    airy_bi,
    airy_bi_scaled,
    recovery_factor,
)
from caustica.airy import _airy_ai_prime, _airy_bi_prime, airy_ai_scaled_pair

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30


def test_golden_values():
    assert abs(airy_ai(0.0) - 0.3550280538878172) < 1e-12
    assert abs(airy_bi(0.0) - 0.6149266274460007) < 1e-12
    assert abs(airy_ai(1.0) - 0.1352924163128814) < 1e-12


def test_bi_over_ai_at_zero_is_sqrt3():
    assert airy_bi(0.0) / airy_ai(0.0) == pytest.approx(math.sqrt(3.0), abs=1e-13)


@pytest.mark.parametrize("x", [-50.0, -20.0, -6.5, -3.0, 0.0, 2.5, 5.9, 6.1, 10.0, 40.0, 95.0])
def test_ai_against_mpmath(x):
    ref = float(mpmath.airyai(x))
    assert abs(airy_ai(x) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("x", [-50.0, -8.0, -2.0, 0.0, 3.0, 6.1, 8.0, 30.0])
def test_bi_against_mpmath(x):
    ref = float(mpmath.airybi(x))
    assert abs(airy_bi(x) - ref) <= 1e-12 * abs(ref)


def test_asymptotic_matches_series_continuation():
    # x = 10 and x = 8 against extended precision
    ref = float(mpmath.airyai(10))
    assert abs(airy_ai(10.0) - ref) <= 1e-12 * ref
    ref_b = float(mpmath.airybi(8))
    assert abs(airy_bi(8.0) - ref_b) <= 1e-12 * ref_b


@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 6.0, 12.0, 50.0, 100.0])
def test_scaled_variants(x):
    xi = (2.0 / 3.0) * x ** 1.5
    ref = float(mpmath.airyai(x) * mpmath.exp(xi))
    assert airy_ai_scaled(x) == pytest.approx(ref, rel=1e-13)
    ref = float(mpmath.airybi(x) * mpmath.exp(-xi))
    assert airy_bi_scaled(x) == pytest.approx(ref, rel=1e-13)


def test_scaled_rejects_negative():
    with pytest.raises(NegativeArgument):
        airy_ai_scaled(-1.0)
    with pytest.raises(NegativeArgument):
        airy_bi_scaled(-0.5)


def test_no_range_limit():
    for x in (-101.0, 101.0):
        assert airy_ai(x) == pytest.approx(float(mpmath.airyai(x)), rel=1e-12)
        assert airy_bi(x) == pytest.approx(float(mpmath.airybi(x)), rel=1e-12)
    x = 1e4
    xi = mpmath.mpf(2) / 3 * mpmath.mpf(x) ** 1.5
    ai, bi = airy_ai_scaled(x), airy_bi_scaled(x)
    assert math.isfinite(ai) and math.isfinite(bi)
    assert ai == pytest.approx(float(mpmath.airyai(x) * mpmath.exp(xi)), rel=1e-13)
    assert bi == pytest.approx(float(mpmath.airybi(x) * mpmath.exp(-xi)), rel=1e-13)


def test_wronskian_on_grid():
    for x in np.arange(-50.0, 50.0 + 1e-9, 0.5):
        w = airy_ai(x) * _airy_bi_prime(x) - _airy_ai_prime(x) * airy_bi(x)
        assert abs(w - 1.0 / math.pi) < 1e-13


def test_recovery_factor_endpoints():
    assert recovery_factor(0.0, AiryKind.RECESSIVE) == 0.0
    assert recovery_factor(0.0, AiryKind.DOMINANT) == 0.0
    assert abs(recovery_factor(25.0, AiryKind.RECESSIVE) - 1.0) < 1e-2
    assert abs(recovery_factor(25.0, AiryKind.DOMINANT) - 1.0) < 1e-2


def test_recovery_factor_monotone():
    grid = np.arange(0.0, 30.0 + 1e-9, 0.01)
    vals = [recovery_factor(z) for z in grid]
    diffs = np.diff(vals)
    assert np.all(diffs > 0.0)


def test_recovery_factor_asymptotic_rate():
    # |R - 1| <= C / zeta'^{3/2} with C < 0.2
    cs = []
    for z in np.linspace(10.0, 50.0, 41):
        cs.append(abs(recovery_factor(z) - 1.0) * z ** 1.5)
    assert max(cs) < 0.2


def test_recovery_factor_guards():
    with pytest.raises(NegativeArgument):
        recovery_factor(-0.1)


def test_scaled_pair_over_sequence_equals_scalar_calls():
    xs = [0.0, 1e-300, 1e-3, 0.5, 4.6, 6.1, 25.0, 100.00000000000028, 1e4]
    for seq in (xs, tuple(xs), np.array(xs)):
        assert airy_ai_scaled_pair(seq) == tuple(airy_ai_scaled_pair(x) for x in xs)
    assert airy_ai_scaled_pair([]) == ()


def test_scaled_pair_sequence_rejects_any_negative_entry():
    with pytest.raises(NegativeArgument):
        airy_ai_scaled_pair([0.5, -1e-12, 2.0])
    with pytest.raises(NegativeArgument):
        airy_ai_scaled_pair(-1.0)
