"""Small helpers for vertex sets stored as int bitmasks."""

from collections.abc import Iterable, Iterator, Sequence


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


def union_of(rows, mask: int) -> int:
    """The union of ``rows[i]`` over the set bits i of ``mask``."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def holders(masks: Sequence[int]) -> dict[int, int]:
    """Map each element present in ``masks``, in ascending order, to the
    bitmask of the indices j whose ``masks[j]`` holds it.  Each set is
    filled as a bytearray and converted once, so building them is linear in
    the total size of the masks plus that of the sets."""
    size, present = len(masks) // 8 + 1, 0
    for mask in masks:
        present |= mask
    filled = {v: bytearray(size) for v in bits(present)}
    for j, mask in enumerate(masks):
        byte, bit = j >> 3, 1 << (j & 7)
        for v in bits(mask):
            filled[v][byte] |= bit
    for v, held in filled.items():
        filled[v] = int.from_bytes(held, "little")
    return filled
