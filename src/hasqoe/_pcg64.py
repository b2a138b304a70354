"""numpy's ``SeedSequence`` → PCG64 streams, computed without loading ``numpy.random``.

A stream is what ``numpy.random.default_rng(seed_sequence)`` draws from.
The seed sequence hashes its entropy words (the seed's little-endian
32-bit words, and for a spawned child the seed padded to four words and
then the child's index) into a 4-word pool, and ``generate_state(4,
uint64)`` of that pool seeds PCG64's 128-bit state and increment.  Each
PCG64 step sets ``state = state * MULTIPLIER + inc`` modulo 2**128 and
outputs the XSL-RR hash of the new state, 64 bits.

The generator holds many streams at once as :class:`Lanes`, one lane
per stream, and every draw of theirs is computed for all lanes in numpy.
A lane's 128-bit number is a pair of ``uint64`` arrays, its high and its
low half; numpy's fixed-width products wrap modulo 2**64, and the high
half of a 64-bit product is put together from 32-bit halves.  A value
that every lane shares (the multiplier, the seed-hashing constants, the
jump table of :func:`random`) is a Python integer, split into a pair
where the lanes need it.  The split protocol draws its test sets with
:func:`choices`, from the streams that :func:`streams` seeds in Python.
Label noise and ``choice``'s tail shuffle are numpy's own draws, which
:func:`_numpy_generator`, the only loader of ``numpy.random``, places at
a stream.  Tests hold every draw equal to numpy's own.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import UsageError

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _mul_high(a, b):
    """The high 64 bits of each 128-bit product of 64-bit ``a`` and ``b``, from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low_cross = a1 * b0 + (a0 * b0 >> 32)  # neither sum can pass 2**64
    high_cross = (low_cross & _MASK32) + a0 * b1
    return a1 * b1 + (low_cross >> 32) + (high_cross >> 32)


def _mul(a, b):
    """``a * b`` modulo 2**128, of (high, low) pairs; at least one pair holds arrays."""
    (a_high, a_low), (b_high, b_low) = a, b
    return _mul_high(a_low, b_low) + a_high * b_low + a_low * b_high, a_low * b_low


def _add(a, b):
    """``a + b`` modulo 2**128, of (high, low) pairs; at least one pair holds arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


_MULTIPLIER_HALVES = _MULTIPLIER >> 64, _MULTIPLIER & _MASK64


def _step(state, inc):
    return _add(_mul(state, _MULTIPLIER_HALVES), inc)


def _output(state):
    """The XSL-RR output of each state: its halves xor-ed, rotated right by its top 6 bits."""
    high, low = state
    word, rotation = high ^ low, high >> 58
    return word >> rotation | word << 64 - rotation  # numpy shifts a uint64 by 64 to 0


class Lanes(NamedTuple):
    """PCG64's state and increment per stream, each a (high, low) pair of ``uint64`` arrays."""

    state: tuple[np.ndarray, np.ndarray]
    inc: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        return len(self.inc[1])

    def take(self, k) -> Lanes:
        """The lanes at the positions ``k``."""
        return Lanes(*((high[k], low[k]) for high, low in self))

    def numbers(self, k: int) -> tuple[int, int]:
        """Lane ``k``'s state and increment as Python integers."""
        return tuple(int(high[k]) << 64 | int(low[k]) for high, low in self)


def _words32(n: int) -> list[int]:
    """``n`` as ``SeedSequence`` reads an integer: little-endian 32-bit words, one for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(hash_const: int, multiplier: int):
    """The constants of ``SeedSequence``'s hashmix calls, a pair per call, call after call.

    A call xors its word with the first and multiplies it by the second, which the next call
    xors with.  The constants are the same for every lane.
    """
    while True:
        following = hash_const * multiplier & _MASK32
        yield hash_const, following
        hash_const = following


def _hashmix(value, constants: tuple[int, int]):
    """One hashmix call: a word, a Python integer or a ``uint64`` array of 32-bit values, hashed."""
    value = (value ^ constants[0]) * constants[1] & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (x * 0xCA01F9DD & _MASK32) - (y * 0x4973F715 & _MASK32) & _MASK32
    return value ^ value >> 16


def _pool(words: list):
    """``SeedSequence``'s 4-word pool after hashing ``words``, and the hashmix constants after it.

    A word of ``words`` past the fourth is mixed into every pool word, with a call each.
    """
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(word, next(constants)) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(constants)))
    for word in words[4:]:
        pool = [_mix(value, _hashmix(word, next(constants))) for value in pool]
    return pool, constants


def _generate_state(pool: list) -> list:
    """``generate_state(4, uint64)`` of a pool: 8 32-bit words, little-endian pairs of them."""
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    return [_hashmix(pool[i % 4], next(constants)) for i in range(8)]


def seed(entropy: int, children=None) -> Lanes:
    """PCG64 as ``default_rng`` seeds it from each ``SeedSequence(entropy).spawn(...)[k]``.

    ``children`` holds the child indices ``k``, each below 2**32; without
    it, the one lane is the unspawned ``SeedSequence(entropy)``'s.  The
    seed's words are the same in every lane, so only the child's word is
    hashed in numpy.
    """
    words: list = _words32(entropy)
    if children is not None:
        children = np.asarray(children, np.uint64)
        if (children >= 2**32).any():  # numpy would hash such an index as two words
            raise UsageError(f"child index {children.max()} must be below 2**32")
        words += [0] * (4 - len(words))
        words.append(children)
    state = [np.array(word, np.uint64, ndmin=1) for word in _generate_state(_pool(words)[0])]
    seed_high, seed_low, inc_high, inc_low = (state[i] | state[i + 1] << 32 for i in (0, 2, 4, 6))
    inc = (inc_high << 1 | inc_low >> 63, inc_low << 1 | 1)
    return Lanes(_step(_add((seed_high, seed_low), inc), inc), inc)


def streams(entropy: int, n: int):
    """Each lane of ``seed(entropy, range(n))`` as its ``(state, inc)``, in Python integers.

    The seed's words are hashed once; each child's word and its state are
    hashed in Python, a child at a time as the streams are taken.
    """
    words = _words32(entropy)
    pool, constants = _pool(words + [0] * (4 - len(words)))
    child_constants = list(islice(constants, 4))
    for k in range(n):
        w = _generate_state([_mix(value, _hashmix(k, constants))
                             for value, constants in zip(pool, child_constants)])
        start = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _MASK128 | 1
        yield ((start + inc) * _MULTIPLIER + inc) & _MASK128, inc


def integers(lanes: Lanes, low: int, high: int) -> tuple[np.ndarray, Lanes]:
    """Each lane's ``Generator.integers(low, high + 1)``, and the lanes after it.

    For ``high - low < 2**32 - 1`` numpy draws this by Lemire's method on
    its buffered 32-bit draws: the low, then the high half of a 64-bit
    output, until one is not rejected.  A range of one value draws nothing.
    """
    span = high - low + 1
    if span == 1:
        return np.full(lanes.size, low, np.intp), lanes
    threshold = (1 << 32) % span
    after = Lanes(tuple(half.copy() for half in lanes.state), lanes.inc)
    values = np.empty(lanes.size, np.intp)
    todo = np.arange(lanes.size)
    while todo.size:
        drawing = after.take(todo)
        moved = _step(drawing.state, drawing.inc)
        after.state[0][todo], after.state[1][todo] = moved
        word = _output(moved)
        first, second = (word & _MASK32) * span, (word >> 32) * span
        kept = (first & _MASK32) >= threshold
        done = kept | ((second & _MASK32) >= threshold)
        values[todo[done]] = np.where(kept, first, second)[done] >> 32
        todo = todo[~done]
    return values + low, after


#: The draws of one row of :func:`random`.  A lane's draws are cut into
#: rows; each row starts from its lane's state by a jump from a table of
#: multiples of the row length, and then all rows step together.
_ROW = 16
#: Rows stepped at a time, which bounds the temporaries.
_CHUNK_ROWS = 16384


def _jumps(n: int):
    """``(A, G)`` for ``r < n``: ``_ROW * r`` steps take each state ``s`` to ``A[r] s + G[r] inc``.

    Entry ``r`` is entry ``r - 1`` followed by the jump of one row, in Python
    integers; the table is split into (high, low) pairs once, at the end.
    """
    row_scale, row_shift = 1, 0
    for _ in range(_ROW):
        row_scale, row_shift = row_scale * _MULTIPLIER, row_shift * _MULTIPLIER + 1
    row_scale, row_shift = row_scale & _MASK128, row_shift & _MASK128
    scale, shift = [1], [0]
    while len(scale) < n:
        scale.append(scale[-1] * row_scale & _MASK128)
        shift.append((shift[-1] * row_scale + row_shift) & _MASK128)
    return tuple((np.array([value >> 64 for value in table], np.uint64),
                  np.array([value & _MASK64 for value in table], np.uint64)) for table in (scale, shift))


def random(lanes: Lanes, counts: np.ndarray) -> np.ndarray:
    """``counts[k]`` of lane ``k``'s ``Generator.random()`` doubles, lane after lane.

    A double is ``(next64 >> 11) * 2**-53``.
    """
    rows = -(-counts // _ROW)
    lane = np.repeat(np.arange(lanes.size), rows)
    row = np.arange(len(lane)) - np.repeat(np.cumsum(rows) - rows, rows)
    scale, shift = _jumps(int(rows.max()))
    out = np.empty(int(counts.sum()))
    words = np.empty((_ROW, min(len(lane), _CHUNK_ROWS)), np.uint64)  # a column of rows per step
    filled = 0
    for first in range(0, len(lane), _CHUNK_ROWS):
        k, r = lane[first:first + _CHUNK_ROWS], row[first:first + _CHUNK_ROWS]
        start = lanes.take(k)
        state = _add(
            _mul((scale[0][r], scale[1][r]), start.state),
            _mul((shift[0][r], shift[1][r]), start.inc),
        )
        for column in words[:, :len(k)]:
            state = _step(state, start.inc)
            column[:] = _output(state)
        drawn = words[:, :len(k)].T[np.arange(_ROW) < (counts[k] - _ROW * r)[:, None]]
        np.multiply(drawn >> 11, 2.0**-53, out=out[filled:filled + len(drawn)])
        filled += len(drawn)
    return out


def _numpy_generator(state: int, inc: int, generator=None):
    """numpy's own ``Generator`` at the PCG64 ``(state, inc)``: ``generator``, or a new one."""
    if generator is None:
        import numpy.random

        generator = numpy.random.Generator(numpy.random.PCG64(0))
    generator.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                     "state": {"state": state, "inc": inc}}
    return generator


def standard_normal(lanes: Lanes, skip: np.ndarray) -> np.ndarray:
    """Each lane's ``Generator.standard_normal()`` after ``skip[k]`` 64-bit draws of lane ``k``.

    numpy's own generator draws these, placed at each lane's state in turn.
    """
    generator = None
    values = np.empty(lanes.size)
    for k in range(lanes.size):
        generator = _numpy_generator(*lanes.numbers(k), generator)
        generator.bit_generator.advance(int(skip[k]))
        values[k] = generator.standard_normal()
    return values


def draws32(state: int, inc: int):
    """A stream's buffered 32-bit draws, in Python: the low, then the high half of each output.

    ``state`` and ``inc`` are the stream's, as :func:`streams` or :meth:`Lanes.numbers` gives them.
    """
    while True:
        state = (state * _MULTIPLIER + inc) & _MASK128
        rotation, word = state >> 122, (state >> 64 ^ state) & _MASK64
        word = (word >> rotation | word << 64 - rotation) & _MASK64
        yield word & _MASK32
        yield word >> 32


def bounded(draws, high: int) -> int:
    """numpy's ``random_bounded_uint64(0, high)`` for ``high < 2**32 - 1``, from :func:`draws32`.

    This is Lemire's method, as :func:`integers` draws it for every lane at once.
    """
    if high == 0:
        return 0
    span = high + 1
    threshold, product = (1 << 32) % span, next(draws) * span
    while product & _MASK32 < threshold:
        product = next(draws) * span
    return product >> 32


def choices(entropy: int, n: int, pool_size: int, size: int):
    """Per ``k < n``, the positions ``choice(pool_size, size, replace=False)`` picks, in no order.

    Draw ``k`` is that of ``default_rng(SeedSequence(entropy).spawn(n)[k])``.  Above
    10,000 positions and ``pool_size // 50`` picks numpy shuffles the tail of the whole
    range, which its own generator draws faster; otherwise the draw is Floyd's.
    """
    shuffles_tail = pool_size > 10000 and size > pool_size // 50
    generator = None
    for stream in streams(entropy, n):
        if shuffles_tail:
            generator = _numpy_generator(*stream, generator)
            yield generator.choice(pool_size, size, replace=False)
        else:
            draws, drawn = draws32(*stream), set()
            for j in range(pool_size - size, pool_size):
                value = bounded(draws, j)
                drawn.add(j if value in drawn else value)
            yield list(drawn)
