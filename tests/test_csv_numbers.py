"""The CSV writer's numbers are printf's ``%.17g``, byte for byte.

``cli._Numbers`` finds each number's 17 digits with double arithmetic and
lays its text out with tables; Python's ``%`` (the C library's correctly
rounded conversion) is the reference.  The inputs are fixed and need numpy
alone: the edges of the method (powers of ten and two, the 17-digit carry,
ties, subnormals, the specials) and random bit patterns from a fixed seed.
"""

import numpy as np
import pytest

from decolab import cli


def _ulps(values, reach):
    """``values`` and the doubles up to ``reach`` ulps either side of each."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    steps = np.arange(-reach, reach + 1, dtype=np.int64)
    return (bits[:, None] + steps).reshape(-1).view(np.float64)


def _powers_of_ten():
    return _ulps([10.0 ** k for k in range(-323, 309)]
                 + [float(f"1e{k}") for k in range(-323, 309)], 3)


def _carry_edges():
    """17 nines and a 5: the 17-digit rounding carries into a new decade."""
    return _ulps([float(f"9.99999999999999995e{k}") for k in range(-324, 308)], 1)


def _powers_of_two():
    return np.ldexp(1.0, np.arange(-1074, 1024))


def _specials():
    tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308])
    subnormals = np.ldexp(np.arange(1, 4096, dtype=float), -1074)
    return np.concatenate([tiny, subnormals, [0.0, np.inf, np.nan]])


def _random_bits():
    bits = np.random.default_rng(20261021).integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
    return bits.view(np.float64)


def _integers():
    rng = np.random.default_rng(7)
    edges = [2.0 ** j + d for j in range(64) for d in (-1.0, 0.0, 1.0)]
    drawn = rng.integers(0, 2 ** 63, 10 ** 4, dtype=np.int64).astype(float)
    return np.concatenate([np.arange(10 ** 4, dtype=float), edges, drawn])


def _ties():
    """Values whose 17-digit rounding is an exact tie (printf rounds half to
    even) and their neighbours: 10^15 + k/4 and 2^50 + k/8 in fixed notation."""
    return _ulps(np.concatenate([1e15 + np.arange(1, 400) / 4, 2.0 ** 50 + np.arange(1, 400) / 8]),
                 1)


def _near_ties():
    """Doubles between 1e-8 and 1e-4 whose y = |x| 10^(16 - X) is a
    half-integer or lies within 3 / 2^bits of one, 40 <= bits <= 52: closer
    than the double arithmetic can tell.  x = M 2^-f makes y = M 5^k / 2^bits
    (k = 16 - X, bits = f - k), so M is solved for the remainder wanted."""
    values = []
    for exp10 in range(-5, -9, -1):
        k = 16 - exp10
        for f in range(55, 90):
            bits = f - k
            if not 40 <= bits <= 52:
                continue
            inverse = pow(5 ** k, -1, 2 ** bits)
            for delta in (-3, -1, 0, 1, 3):
                low = (2 ** (bits - 1) + delta) * inverse % 2 ** bits
                for step in range(2 ** (53 - bits)):
                    m = low + step * 2 ** bits
                    x = np.ldexp(float(m), -f)
                    if 2 ** 52 <= m < 2 ** 53 and 10.0 ** exp10 <= x < 10.0 ** (exp10 + 1):
                        values.append(x)
    return np.array(values)


INPUTS = {
    "powers of ten": _powers_of_ten,
    "carry edges": _carry_edges,
    "powers of two": _powers_of_two,
    "subnormals and specials": _specials,
    "random bit patterns": _random_bits,
    "integers": _integers,
    "ties": _ties,
    "near ties": _near_ties,
}


def _printf(values, width=1):
    rows = np.asarray(values).reshape(-1, width).tolist()
    line = ",".join(["%.17g"] * width) + "\r\n"
    return "".join(line % tuple(row) for row in rows).encode("ascii")


@pytest.mark.parametrize("name", INPUTS)
def test_numbers_are_printf_17g_byte_for_byte(name):
    values = INPUTS[name]()
    values = np.concatenate([values, -values])
    got = bytes(cli._Numbers().lines(values.reshape(-1, 1)))
    assert got == _printf(values)


@pytest.mark.parametrize("width", [2, 3, 4, 7])
def test_rows_of_numbers_are_printf_17g_byte_for_byte(width):
    values = np.concatenate([f() for f in INPUTS.values()])
    values = values[: values.size // width * width]
    values = np.random.default_rng(width).permutation(values)
    numbers = cli._Numbers()
    got = b"".join(bytes(numbers.lines(part))
                   for part in np.array_split(values.reshape(-1, width), 7))
    assert got == _printf(values, width)


def test_one_formatter_goes_on_through_pieces_of_any_size():
    # the buffers grow, and stay, as pieces of another size come
    numbers = cli._Numbers()
    values = _random_bits()[:3000].reshape(-1, 3)
    for size in (1, 400, 7, 1000, 1):
        assert bytes(numbers.lines(values[:size])) == _printf(values[:size], 3)


@pytest.mark.parametrize("misjudged", [-1, 1])
def test_a_decade_misjudged_by_log10_falls_back_to_printf(monkeypatch, misjudged):
    # X one too small puts y at or past 10^17, one too large below 10^16:
    # either way the decade tests send the element to Python's "%.16e"
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + misjudged)
    values = np.concatenate([_powers_of_ten(), _random_bits()[:1000]])
    values = values[np.isfinite(values)]
    assert bytes(cli._Numbers().lines(values.reshape(-1, 1))) == _printf(values)
