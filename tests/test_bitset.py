import random
from operator import and_, or_

from omegalab.bitset import Folded, bits, holders, mask_of, union_of


def _random_masks(rng: random.Random) -> list[int]:
    width = rng.choice((1, 8, 9, 40))
    return [rng.getrandbits(width) if rng.random() < 0.8 else 0 for _ in range(rng.randint(0, 20))]


def test_holders_match_their_definition():
    # index j is in holders(masks)[v] iff v is in masks[j]; the keys are the
    # elements present, ascending; indices 7 and 8 sit on either side of a
    # byte of the sets' buffers
    rng = random.Random(4242)
    cases = [[], [0], [0, 0, 0], [0] * 7 + [0b101, 0b110], [1 << 8] * 9]
    cases += [_random_masks(rng) for _ in range(300)]
    for masks in cases:
        held = holders(masks)
        present = mask_of(v for m in masks for v in bits(m))
        assert list(held) == list(bits(present))
        for v, h in held.items():
            assert h == mask_of(j for j, m in enumerate(masks) if m >> v & 1), (masks, v)
    assert holders([0] * 7 + [0b101, 0b110]) == {0: 1 << 7, 1: 1 << 8, 2: 0b11 << 7}


def test_union_of_matches_its_definition():
    rng = random.Random(2424)
    for _ in range(300):
        rows = _random_masks(rng) or [0]
        mask = rng.getrandbits(len(rows))
        expect = 0
        for i in range(len(rows)):
            if mask >> i & 1:
                expect |= rows[i]
        assert union_of(rows, mask) == expect
        assert union_of(dict(enumerate(rows)), mask) == expect
    assert union_of([], 0) == 0 and union_of([5, 6], 0) == 0
    assert union_of([0] * 7 + [1, 2], 1 << 7 | 1 << 8) == 3


def test_folded_memos_match_the_direct_fold():
    # every value a memo holds, the ones filled on the way to a deeper key
    # included, is the fold of its key's rows: their union for OR, and for
    # AND their intersection starting from the full set
    rng = random.Random(5353)
    full = (1 << 40) - 1
    for _ in range(300):
        rows = _random_masks(rng) or [0]
        ors, ands = Folded(rows, or_, 0), Folded(rows, and_, full)
        for _ in range(rng.randint(1, 40)):
            x = rng.getrandbits(len(rows))
            if rng.random() < 0.3 and len(ors) > 1:  # a key near one already held
                x = rng.choice(list(ors)) ^ 1 << rng.randrange(len(rows))
            assert ors[x] == union_of(rows, x)
            intersection = full
            for i in bits(x):
                intersection &= rows[i]
            assert ands[x] == intersection
        for x, value in ors.items():
            assert value == union_of(rows, x)
        for x, value in ands.items():
            assert value == full & ~union_of([full & ~r for r in rows], x)
    assert Folded([], or_, 7)[0] == 7
