"""Counter-based randomness.

Every random quantity in this package is a pure function of a 64-bit key and
one or two integer counters, computed with splitmix64 (Steele, Lea & Flood's
finalizer: two xor-shift-multiply rounds).  There is no sequential generator
state anywhere: replaying round t, or querying rewards out of order, always
yields the same bits.  This is what makes environments oblivious and traces
bit-reproducible from (config, seed).

Streams are separated by hashing an ASCII tag (FNV-1a) into the key, so the
selection stream, the reward-noise stream, and the pricing-value stream never
collide even under equal seeds.

`uniform` on two scalar integer counters runs splitmix64 on Python ints
(`_mix`), which skips numpy's per-call array set-up on the learner's
per-round draws.  It computes the same function as the array path, bit for
bit, and returns an np.float64.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_M64 = (1 << 64) - 1
_INTS = (int, np.integer)

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def splitmix64(x):
    """splitmix64 finalizer, elementwise over uint64 scalars or arrays."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def _mix(x: int) -> int:
    """splitmix64 on a Python int in [0, 2**64)."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def fnv1a64(tag: str) -> np.uint64:
    """FNV-1a hash of an ASCII tag, used to separate named streams."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in tag.encode("ascii"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return h


def stream_key(seed: int, tag: str) -> np.uint64:
    """Derive the key of a named stream from the experiment seed."""
    return splitmix64(np.uint64(seed % (1 << 64)) ^ fnv1a64(tag))[()]


def counter_hash(key, a, b=0):
    """uint64 hash of (key, a, b); a and b may be arrays (broadcast)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    h = splitmix64(np.asarray(key, dtype=np.uint64) ^ splitmix64(a))
    return splitmix64(h ^ splitmix64(b))


def uniform(key, a, b=0):
    """Uniform float64 in [0, 1) keyed by (key, a, b), elementwise."""
    if isinstance(a, _INTS) and isinstance(b, _INTS):
        # counter_hash on Python ints; integers wrap modulo 2**64 as in uint64
        h = _mix(_mix(int(key) ^ _mix(int(a) & _M64)) ^ _mix(int(b) & _M64))
        return np.float64((h >> 11) * 2.0 ** -53)
    h = counter_hash(key, a, b)
    # top 53 bits -> [0, 1) with full double precision
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
