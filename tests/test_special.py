"""Airy evaluation and the scaling-identity helpers against frozen oracles."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from timepovm.special import _airy_zeros_table, airy_ai, airy_zero, min_product_identity, universal_constant

# reference values computed with 30-digit arbitrary-precision arithmetic
# and frozen here; the point at the first zero is checked absolutely below
AI_TABLE = [
    (-12.0, -0.06655517505437313),
    (-8.5, -0.33029023763020887),
    (-5.0, 0.35076100902411433),
    (-1.0, 0.5355608832923521),
    (0.0, 0.3550280538878172),
    (0.5, 0.23169360648083348),
    (1.0, 0.13529241631288141),
    (2.0, 0.03492413042327438),
    (3.5, 0.002584098786989635),
    (5.0, 0.00010834442813607442),
    (8.0, 4.6922076160992316e-08),
    (12.0, 1.3931846888753607e-13),
    (20.0, 1.6916728686705404e-27),
    (28.0, 1.5523434483415925e-44),
]

# first zeros of Ai on the negative axis, same provenance
ZEROS = {
    1: 2.3381074104597674,
    2: 4.08794944413097,
    3: 5.520559828095552,
    20: 20.537332907677566,
}


@pytest.mark.parametrize("x,expected", AI_TABLE)
def test_airy_ai_matches_frozen_oracle(x, expected):
    assert abs(float(airy_ai(x)) - expected) <= 5e-14 * abs(expected)


def test_airy_ai_vanishes_at_first_zero():
    assert abs(float(airy_ai(-ZEROS[1]))) <= 1e-15


def test_airy_ai_accepts_arrays():
    xs = np.array([-3.0, 0.0, 2.5])
    vals = airy_ai(xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert abs(v - float(airy_ai(float(x)))) == 0.0


def test_airy_ai_satisfies_its_differential_equation():
    # y'' = x*y checked with a second-difference stencil; the 6e-7 level is
    # the stencil truncation on the oscillatory side, not evaluation error
    h = 5e-4
    xs = np.linspace(-10.0, 5.0, 301)
    second = (airy_ai(xs + h) - 2.0 * airy_ai(xs) + airy_ai(xs - h)) / h**2
    assert np.max(np.abs(second - xs * airy_ai(xs))) <= 1e-6


@pytest.mark.parametrize("k", sorted(ZEROS))
def test_airy_zero_matches_frozen_oracle(k):
    assert abs(airy_zero(k) - ZEROS[k]) <= 1e-13


def test_airy_zeros_table_is_unchanged_to_the_last_bit():
    # the 20 zeros as repr floats from the per-node Horner evaluation;
    # every half-line constant derives from them, so no bit may move
    golden = (Path(__file__).parent / "golden" / "airy-zeros.txt").read_text()
    assert "".join(f"{z!r}\n" for z in _airy_zeros_table()) == golden


def test_airy_zero_bracketed_by_sign_changes():
    for k in range(1, 21):
        z = airy_zero(k)
        assert float(airy_ai(-(z - 1e-6))) * float(airy_ai(-(z + 1e-6))) < 0.0


@pytest.mark.parametrize("index", [True, 2.0])
def test_airy_zero_refuses_an_index_that_is_not_an_integer(index):
    with pytest.raises(ValueError, match=f"zero index must be an integer, got {index!r}"):
        airy_zero(index)


def test_airy_zero_rejects_out_of_range():
    with pytest.raises(ValueError):
        airy_zero(0)
    with pytest.raises(ValueError):
        airy_zero(21)


@pytest.mark.parametrize(
    "x, message",
    [
        (-25.0, "outside supported window"),
        ([0.0, 31.0], "outside supported window"),
        (np.nan, "finite"),
        ([0.0, np.inf], "finite"),
    ],
)
def test_airy_ai_refuses_arguments_outside_its_window(x, message):
    with pytest.raises(ValueError, match=message):
        airy_ai(x)


def test_min_product_identity_trivial_pairs():
    value, arg = min_product_identity(1.0, 1.0)
    assert value == 1.0 and arg == 2.0
    value, arg = min_product_identity(4.0, 2.0)
    assert value == 16.0 and arg == 4.0


def test_min_product_identity_matches_direct_scan():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(10.0 ** rng.uniform(-2, 2))
        value, arg = min_product_identity(a, b)
        assert abs(value - a * b * b) <= 1e-12 * a * b * b
        lam = arg * np.logspace(-2, 2, 4001)
        scan = (4.0 / 27.0) * (a + lam * b) ** 3 / lam**2
        assert scan.min() >= value - 1e-12 * value
        assert abs(lam[np.argmin(scan)] - arg) <= arg * 3e-3


def test_min_product_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        min_product_identity(0.0, 1.0)
    with pytest.raises(ValueError):
        min_product_identity(1.0, -2.0)


@pytest.mark.parametrize(
    "a, b",
    [
        (1.0, 1e200),  # b^2 beyond the float range
        (1e300, 1e10),  # a b^2 overflows, b^2 does not
        (1e300, 1e-10),  # 2a/b overflows
    ],
)
def test_min_product_identity_refuses_results_outside_the_float_range(a, b):
    # the pair is named as plain floats, whatever type it came in
    with pytest.raises(ValueError, match=re.escape(f"a={a!r}, b={b!r}")):
        min_product_identity(np.float64(a), np.float64(b))


def test_universal_constant_value():
    d = universal_constant()
    assert abs(d - math.sqrt(4.0 / 27.0 * ZEROS[1] ** 3)) <= 1e-15
    assert abs(d - 1.3760835433437753) <= 1e-14
    assert abs(d - 1.376) <= 1e-3
