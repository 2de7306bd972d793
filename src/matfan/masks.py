"""Bitmask subsets of a ground set {0, ..., n}.

A subset is a plain int: bit i set means element i is in the subset.
Ground sets are capped at 31 elements so masks stay single machine words;
exhaustive 2**size scans are additionally capped at 21 elements.
"""

from __future__ import annotations

from collections.abc import Iterator

MAX_GROUND_SIZE = 31
EXHAUSTIVE_SCAN_LIMIT = 21


def full_mask(size: int) -> int:
    return (1 << size) - 1


def iter_elements(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_mask(mask: int, size: int) -> None:
    """Reject masks with bits outside {0, ..., size-1}."""
    if mask < 0 or mask & ~full_mask(size):
        raise ValueError(
            f"mask {bin(mask)} has bits outside the {size}-element ground set"
        )


def iter_subsets(size: int) -> Iterator[int]:
    """All 2**size masks in ascending order.  Guarded: exhaustive scans only."""
    if size > EXHAUSTIVE_SCAN_LIMIT:
        raise ValueError(f"refusing exhaustive scan of 2**{size} subsets")
    return iter(range(1 << size))
