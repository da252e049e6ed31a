"""Small keyed pseudo-random function used everywhere randomness is needed.

Deterministic across platforms and Python versions (pure integer mixing),
which is what makes seeded runs reproducible bit-for-bit.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def prf_u64(seed: int, *parts: int) -> int:
    """64-bit PRF value of (seed, parts...)."""
    z = _mix((seed & _M64) ^ _GAMMA)
    for p in parts:
        z = _mix(z ^ _mix((p & _M64) + _GAMMA))
    return z


def prf_uniform(seed: int, *parts: int) -> float:
    """Uniform float in [0, 1)."""
    return prf_u64(seed, *parts) / 2.0**64


def _sample_keys(seed: int, r: int) -> list[int]:
    """The mixed (seed, i) prefix of each sample i < r, the seed mixed once."""
    z = _mix((seed & _M64) ^ _GAMMA)
    return [_mix(z ^ _mix((i & _M64) + _GAMMA)) for i in range(r)]


def sample_members(seed: int, r: int, n: int, rho: float) -> list[list[int]]:
    """Per sample i < r, the ascending nodes v < n with
    ``prf_uniform(seed, i, v) < rho``, bit for bit.

    With the prefixes of :func:`_sample_keys` and each node part mixed once,
    each (i, v) costs one mix instead of five.
    """
    node_parts = [_mix((v & _M64) + _GAMMA) for v in range(n)]
    return [[v for v, zv in enumerate(node_parts) if _mix(zi ^ zv) / 2.0**64 < rho]
            for zi in _sample_keys(seed, r)]


def sample_mask(seed: int, r: int, rho: float):
    """``mask(x)``: the bitmask of the samples i < r with ``prf_uniform(seed, i, x) < rho``,
    bit for bit, at one mix per sample and one for x."""
    keyed = [(1 << i, zi) for i, zi in enumerate(_sample_keys(seed, r))]

    def mask(x: int) -> int:
        zx = _mix((x & _M64) + _GAMMA)
        return sum(bit for bit, zi in keyed if _mix(zi ^ zx) / 2.0**64 < rho)

    return mask


def prf_bits(seed: int, count: int, tag: int = 0) -> list[int]:
    """`count` reproducible bits derived from (seed, tag)."""
    out = []
    word = 0
    for i in range(count):
        if i % 64 == 0:
            word = prf_u64(seed, tag, i // 64)
        out.append((word >> (i % 64)) & 1)
    return out
