"""Deterministic sub-stream seeds, and the coin bits drawn from them.

All randomness in the package flows from one root seed.  Independent
consumers (code sampling, channel noise, measurement outcomes) derive
their own seeds by hashing the root together with a label, so adding a
consumer never perturbs the streams of existing ones.

Coin bits are drawn by ``_coin_bits``, which computes numpy's seeding of
``default_rng(seed)`` and its ``integers(0, 2, dtype=np.uint8)`` draws
itself, in Python integer arithmetic, for several seeds at once.  No numpy
source ships here, so the algorithm is stated in full.  Every operation
below is on uint32 words, mod 2^32, unless it says otherwise.

SeedSequence(seed) for an int seed in [0, 2^64):
  - the entropy is the seed's uint32 words, least significant first: [lo]
    below 2^32 and [lo, hi] above.  The pool holds 4 words and a missing
    word counts as 0, so a seed below 2^32 pads with the same zero as its
    hi word would be;
  - hashmix(v) = t ^ t >> XSHIFT, with t = (v ^ h_A)·h_A' where h_A' =
    h_A·MULT_A replaces h_A.  h_A starts at INIT_A and runs on through
    every hashmix of one seeding;
  - mix(x, y) = t ^ t >> XSHIFT, with t = MIX_MULT_L·x − MIX_MULT_R·y;
  - pool[i] = hashmix(entropy word i) for i = 0..3; then 12 cross-mix
    steps: for src = 0..3 and each dst ≠ src in order,
    pool[dst] = mix(pool[dst], hashmix(pool[src]));
  - generate_state gives 8 words w0..w7: w_i = t ^ t >> XSHIFT with
    t = (pool[i mod 4] ^ h_B)·h_B', where h_B' = h_B·MULT_B replaces h_B,
    from h_B = INIT_B.
  The constants are INIT_A 0x43b0d7e5, MULT_A 0x931e8875, INIT_B
  0x8b51f9dd, MULT_B 0x58f38ded, MIX_MULT_L 0xca01f9dd, MIX_MULT_R
  0x4973f715 and XSHIFT 16.

PCG64 from those words, mod 2^128:
  - init = (w0 | w1<<32)<<64 | w2 | w3<<32 and
    inc = ((w4 | w5<<32)<<64 | w6 | w7<<32)<<1 | 1;
  - the state starts at (inc + init)·MULT + inc, with
    MULT = 2549297995355413924·2^64 + 4865540595714422341;
  - each 64-bit output steps state = state·MULT + inc and returns the
    XSL-RR of the new state: (hi ^ lo) rotated right by state >> 122,
    for hi, lo its 64-bit halves.

integers(0, 2, size=s, dtype=np.uint8): with range 2 numpy's uint8 Lemire
draw is (2·byte) >> 8 = byte >> 7 and never rejects.  It takes the bytes
of a uint32 stream least significant first, each call from a fresh
uint32, and PCG64 hands out each 64-bit output low half first.  So call i
reads the outputs as little-endian bytes from byte 4·Σ_{j<i} ceil(s_j/4).

The seeding runs on all seeds at once: seed j holds bits [72j, 72j + 72)
of one Python int, a lane.  Each lane holds a word below 2^32 between
steps.  A product of two words is below 2^64, and the two products of a
mix sum below 2^65, so no carry crosses into the next lane; a mask keeps
the low 32 bits of every lane after each multiply.  ``t >> 16`` moves
the next lane's low 16 bits into bits 56..71 of the lane below, so a mask
follows each ``t ^ t >> 16`` too.  −MIX_MULT_R·y is added as
(2^32 − MIX_MULT_R)·y, which is the same mod 2^32 and borrows from no lane.

NEP 19 keeps a bit generator's stream for a given seed stable across numpy
versions; the uint8 ``integers`` draw has no such promise.  The tests hold
this kernel to numpy's own calls on 20 000 seeds, so a change in either
shows there.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import _check_int

__all__ = ["derive_seed"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_LANE = 72


def _chain(init: int, mult: int, steps: int) -> tuple:
    """The hash constants h, h·mult, h·mult², ... mod 2^32, steps + 1 of them."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & _M32)
    return tuple(h)


# hashmix i xors with _HASH_A[i] and multiplies by _HASH_A[i + 1]; state
# word i likewise with _HASH_B.  Hashmix i reads pool word src into word dst:
# the 4 pool words, then the 12 cross-mix steps, which mix into dst
_HASH_A = _chain(_INIT_A, _MULT_A, 16)
_HASH_B = _chain(_INIT_B, _MULT_B, 8)
_HASHMIX_STEPS = [(i, i) for i in range(4)] + [(s, d) for s in range(4)
                                                for d in range(4) if s != d]
_MIX_NEG_R = (1 << 32) - _MIX_MULT_R       # −MIX_MULT_R mod 2^32


@functools.cache
def _lanes(count: int) -> tuple:
    """The 32-bit lane mask of count lanes, and both hash chains set in
    every lane, for the xors."""
    rep = sum(1 << _LANE * j for j in range(count))
    return (_M32 * rep, tuple(h * rep for h in _HASH_A), tuple(h * rep for h in _HASH_B))


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit child seed from an integer ``root`` and a textual
    ``label``.  A numpy integer hashes as the Python int of its value; any
    other non-integer root, bools included, is refused."""
    digest = hashlib.sha256(f"{_check_int('seed', root)}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _coin_bits(*requests) -> list:
    """For each (seed, sizes) request, the tuple of arrays that successive
    ``default_rng(seed).integers(0, 2, size=s, dtype=np.uint8)`` calls
    return, one per size in sizes.  Each seed must be an int in [0, 2^64);
    every seed is checked before anything is drawn.  The module docstring
    states the computation: one lane-parallel SeedSequence pass over all
    seeds, then each lane's PCG64 outputs."""
    packed = 0
    for j, (seed, _) in enumerate(requests):
        if type(seed) is not int or not 0 <= seed <= _M64:
            raise ValueError(f"coin seed must be an int in [0, 2^64), got {seed!r}")
        packed |= seed << _LANE * j
    mask, xa, xb = _lanes(len(requests))
    pool = [packed & mask, packed >> 32 & mask, 0, 0]
    for i, (src, dst) in enumerate(_HASHMIX_STEPS):
        t = (pool[src] ^ xa[i]) * _HASH_A[i + 1] & mask
        t = (t ^ t >> 16) & mask
        if src != dst:
            t = _MIX_MULT_L * pool[dst] + _MIX_NEG_R * t & mask
            t = (t ^ t >> 16) & mask
        pool[dst] = t
    w = []
    for i in range(8):
        t = (pool[i % 4] ^ xb[i]) * _HASH_B[i + 1] & mask
        w.append((t ^ t >> 16) & mask)
    a, b, c, d = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))

    raw, words, cuts = 0, 0, []       # all outputs, their count, each request's slices
    for j, (_, sizes) in enumerate(requests):
        sh = _LANE * j
        inc = ((c >> sh & _M64) << 64 | d >> sh & _M64) << 1 | 1
        state = (((a >> sh & _M64) << 64 | b >> sh & _M64) + inc) * _PCG_MULT + inc
        first = start = 8 * words
        cuts.append([])
        for s in sizes:
            cuts[-1].append((start, s))
            start += (s + 3) & -4
        for _ in range((start - first + 7) >> 3):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            raw |= ((x | x << 64) >> (state >> 122) & _M64) << 64 * words
            words += 1
    coins = np.frombuffer(raw.to_bytes(8 * words, "little"), np.uint8) >> 7
    return [tuple([coins[a:a + s] for a, s in lane]) for lane in cuts]
