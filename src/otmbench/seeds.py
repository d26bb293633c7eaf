"""Deterministic sub-stream seed derivation.

All randomness in the package flows from one root seed.  Independent
consumers (code sampling, channel noise, measurement outcomes) derive
their own seeds by hashing the root together with a label, so adding a
consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit child seed from ``root`` and a textual ``label``."""
    digest = hashlib.sha256(f"{root}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

