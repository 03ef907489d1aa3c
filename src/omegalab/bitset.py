"""Small helpers for vertex sets stored as int bitmasks."""

from collections.abc import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(items: Iterable[int]) -> int:
    out = 0
    for i in items:
        out |= 1 << i
    return out
