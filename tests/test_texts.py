"""Block float and int texts against float.__repr__ and int.__repr__."""

import numpy as np
import pytest

from sparseact.texts import _BLOCK, float_chars, int_chars

TINY, HUGE = 5e-324, 1.7976931348623157e308


def _decoded(chars: np.ndarray) -> list[str]:
    """The texts of NUL-padded rows, checking that only NULs follow a text."""
    assert chars.dtype == np.uint8 and chars.ndim == 2
    texts = []
    for row in chars:
        text, _, padding = bytes(row).partition(b"\0")
        assert not padding.strip(b"\0")
        texts.append(text.decode("ascii"))
    return texts


def float_texts(a: np.ndarray) -> list[str]:
    return _decoded(float_chars(a))


def int_texts(a) -> list[str]:
    return _decoded(int_chars(a))


def _neighbours(values: np.ndarray) -> np.ndarray:
    """Each value and the doubles on either side of it."""
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


def _hard_values(rng: np.random.Generator) -> np.ndarray:
    """Over 2^20 doubles of both signs, weighted to the cases the digit
    search and the layout can get wrong."""
    bits = rng.integers(0, 1 << 64, size=1 << 17, dtype=np.uint64)
    patterns = bits.view(np.float64)
    subnormals = (bits[: 1 << 12] >> 12).view(np.float64)
    powers = np.array(
        [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    )
    edges = np.array(
        [1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17, 9999999999999998.0, 9007199254741000.0,
         2.9802322387695312e-08]
    )
    big_ints = rng.integers(1 << 53, 1 << 63, size=1 << 15).astype(np.float64)
    # the spacing is 1/4 in [2^50, 2^51): 17 digits leave exact ties
    quarters = 2.0**50 + rng.integers(0, 1 << 40, size=1 << 16) / 4
    scaled = rng.standard_normal(13 << 16) * 10.0 ** rng.integers(-20, 21, size=13 << 16)
    values = np.concatenate(
        [
            subnormals, _neighbours(powers), _neighbours(edges), big_ints, quarters,
            scaled, [0.0, TINY, HUGE, 2.2250738585072014e-308],
        ]
    )
    values[rng.random(values.size) < 0.5] *= -1.0
    patterns = patterns[np.isfinite(patterns)]
    return np.concatenate([patterns, values, -values[-4:]])


def test_texts_match_repr():
    rng = np.random.default_rng(18)
    values = _hard_values(rng)
    assert values.size >= 1 << 20
    assert float_texts(values) == list(map(float.__repr__, values.tolist()))
    ints = rng.integers(-(1 << 63), 1 << 63, size=1 << 16, dtype=np.int64)
    ints[:4] = [-(1 << 63), (1 << 63) - 1, 0, -1]
    ints[4:40] = [sign * 10**e for sign in (1, -1) for e in range(18)]
    assert int_texts(ints) == list(map(int.__repr__, ints.tolist()))
    for column in (range(1 << 18), range(-5, (1 << 63) - 1, 1 << 50), range(0)):
        assert int_texts(column) == list(map(int.__repr__, column))


def test_float_texts_refuse_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        values = np.zeros(_BLOCK + 3)
        values[_BLOCK + 1] = bad
        with pytest.raises(ValueError):
            float_texts(values)


def test_float_texts_of_strided_and_partly_zero_blocks():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(3 * _BLOCK + 7)
    values[rng.random(values.size) < 0.9] = 0.0
    values[::97] = -0.0
    for column in (values, values[::3], values[:0]):
        assert float_texts(column) == list(map(float.__repr__, column.tolist()))
