"""Counter-based random streams keyed by (seed, label, point index, slot).

Perturbation experiments need per-point randomness that does not depend on
evaluation order, chunking, or thread schedule: the displacement of point i
of set "X" under seed 7 must be the same bits no matter how the array is
traversed.  We get that with a stateless mixing function: every variate is
``mix(key, counter, slot)`` where ``key`` hashes (seed, label), ``counter``
is the point's canonical (lexicographic) index and ``slot`` distinguishes
the several uniforms one point may consume (Box-Muller pairs, mixture
component picks, radial draws...).

The mixer is the standard splitmix64 finalizer (Steele, Lea & Flood,
OOPSLA 2014) applied to a combination of key, counter and slot.  It is
vectorised over uint64 numpy arrays, mixes each draw's array in place (uint64
arithmetic wraps exactly, so no step needs a copy), is exact on every
platform, and is plenty for Monte-Carlo noise (it is not, and does not need
to be, cryptographic).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .geometry import _require_integer

__all__ = ["stream_key", "uniforms", "normals"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SLOT_SALT = np.uint64(0xD6E8FEB86659FD93)


def stream_key(seed: int, label: str) -> int:
    """Collapse (seed, label) into a 64-bit stream key; every draw's seed is checked here."""
    material = f"{_require_integer(seed, 'seed')}\x1f{label}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalise ``x`` in place and return it."""
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _raw(key: int, counters: np.ndarray, slot: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = np.asarray(counters, dtype=np.uint64) ^ (np.uint64(slot) * _SLOT_SALT)
        h = _splitmix64(h)
        h ^= np.uint64(key)
        return _splitmix64(h)


def uniforms(key: int, counters: np.ndarray, slot: int) -> np.ndarray:
    """Deterministic float64 uniforms in [0, 1) for the given counters/slot."""
    h = _raw(key, counters, slot)
    h >>= np.uint64(11)
    return np.multiply(h, 2.0 ** -53)


def normals(key: int, counters: np.ndarray, slot: int) -> np.ndarray:
    """Standard normals via Box-Muller; consumes slots `slot` and `slot + 1`."""
    u1 = uniforms(key, counters, slot)
    u2 = uniforms(key, counters, slot + 1)
    # avoid log(0): shift u1 into (0, 1]
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    return r * np.cos(2.0 * np.pi * u2)
