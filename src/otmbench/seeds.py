"""Deterministic sub-stream seed derivation.

All randomness in the package flows from one root seed.  Independent
consumers (code sampling, channel noise, measurement outcomes) derive
their own seeds by hashing the root together with a label, so adding a
consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed"]


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit child seed from ``root`` and a textual ``label``."""
    digest = hashlib.sha256(f"{root}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _coin_bits(seed, *sizes: int) -> tuple:
    """The arrays successive ``default_rng(seed).integers(0, 2, size=s,
    dtype=np.uint8)`` calls return, one per size, from one PCG64 raw draw.

    With range 2 numpy's uint8 Lemire draw is (2·byte) >> 8 = byte >> 7 and
    never rejects.  It takes the bytes of a uint32 stream least significant
    first, each call from a fresh uint32, and PCG64 hands out each 64-bit
    output low half first.  So call i reads the raw output as little-endian
    bytes from byte 4·Σ_{j<i} ceil(s_j/4)."""
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + (s + 3) // 4 * 4)
    raw = np.random.PCG64(seed).random_raw((starts[-1] + 7) // 8)
    coins = raw.astype("<u8", copy=False).view(np.uint8) >> 7
    return tuple([coins[a:a + s] for a, s in zip(starts, sizes)])
