"""Counter-based randomness.

Every random quantity in this package is a pure function of a 64-bit key and
one or two integer counters, computed with splitmix64 (Steele, Lea & Flood's
finalizer: two xor-shift-multiply rounds).  There is no sequential generator
state anywhere: replaying round t, or querying rewards out of order, always
yields the same bits.  This is what makes environments oblivious and traces
bit-reproducible from (config, seed).

Streams are separated by hashing an ASCII tag (FNV-1a) into the key, so the
selection stream, the reward-noise stream, and the pricing-value stream never
collide even under equal seeds.  Per-round draws (selection uniforms,
pricing values, reward-noise round keys) are taken ROUND_BLOCK rounds at a
time.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
TOP53 = np.uint64(11)  # right shift to a hash's top 53 bits
ROUND_BLOCK = 256  # rounds of per-round draws taken at once (2 KiB)

_M64 = (1 << 64) - 1

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def splitmix64(x, out=None, scratch=None):
    """splitmix64 finalizer, elementwise over uint64 scalars or arrays, mixed
    in place in out (default: a copy of x; x changes only if it is out)
    through one scratch array, so given both buffers it allocates nothing."""
    if out is None:
        out = np.array(x, dtype=np.uint64)
    elif out is not x:
        np.copyto(out, x, casting="unsafe")
    s = np.empty_like(out) if scratch is None else scratch
    out += _GOLDEN
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        out ^= np.right_shift(out, shift, out=s)
        out *= mult
    out ^= np.right_shift(out, _S31, out=s)
    return out if out.ndim else out[()]


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
    """uint64 hash of (key, a, b); a and b may be arrays (broadcast).  The
    outer XOR is mixed in place, so a block costs it and one scratch."""
    h = splitmix64(np.asarray(key, dtype=np.uint64) ^ splitmix64(a))
    h = np.asarray(h ^ splitmix64(b))
    return splitmix64(h, out=h)


def uniform(key, a, b=0):
    """Uniform float64 in [0, 1) keyed by (key, a, b), elementwise.  Python
    int counters must lie in [0, 2**64); numpy integers wrap modulo 2**64."""
    # top 53 bits -> [0, 1) with full double precision; the shift is in
    # place, and the floats are the one new array (a cast onto the hash's
    # own memory would be copied by numpy first)
    h = np.asarray(counter_hash(key, a, b))
    return np.right_shift(h, TOP53, out=h) * 2.0 ** -53
