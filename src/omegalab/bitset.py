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


class Folded(dict):
    """A memo of a fold over the set bits of its keys: the value of a
    missing key x is ``op(self[x without its lowest bit], rows[lowest bit
    of x])``, and that of 0 is ``start``.  A miss whose prefix is held costs
    one lookup and one ``op``; a deeper miss fills the prefixes it lacks on
    the way back up, without recursion."""

    __slots__ = ("rows", "op")

    def __init__(self, rows, op, start):
        super().__init__({0: start})
        self.rows, self.op = rows, op

    def __missing__(self, key: int):
        path, x = [], key
        while x not in self:
            path.append(x)
            x &= x - 1
        out = self[x]
        for x in reversed(path):
            out = self[x] = self.op(out, self.rows[(x & -x).bit_length() - 1])
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
