"""numpy's PCG64 streams of `SeedSequence((master_seed, i))`, replayed with
array arithmetic for many trial indices i at once.

`Streams(master_seed, indices)` holds one stream per index and draws what
`np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed,
i))))` would: `integers(low, high)` and `random(m)`, bit for bit, with no
Python call per stream.  The arithmetic is numpy's own, whose streams NEP 19
keeps fixed for SeedSequence and PCG64:

1. Seeding.  SeedSequence hashes the little-endian 32-bit words of
   master_seed, then of i (0 is one word), into a pool of 4 words
   (`hashmix`, `mix`), and `generate_state(4, uint64)` hashes the pool into
   four words v0..v3.  PCG64 takes seed = v0 v1 and inc = (v2 v3) << 1 | 1
   (128 bits, high word first), starts from 0, steps, adds the seed and
   steps again.  A step is s -> a s + inc mod 2^128.  The 32-bit words are
   held in uint64 arrays, so their products are exact.
2. Positions.  Let X = seed + inc, the state before the last seeding step.
   Position j, the state after j draws (0 is the seeded state), is j + 1
   steps from X: a^(j+1) X + inc (a^(j+1) - 1) / (a - 1).  As a - 1 = 4q
   with q odd and B_j = (a^(j+1) - 1) / 4 is an integer, that is
   B_j Z + X mod 2^128 with Z = 4X + inc / q per stream.  So every draw is
   one 128-bit multiply-add on 64-bit words, whose 64 x 64 -> 128-bit high
   word is formed from 32-bit halves, against a table of B_j that is built
   on first use and doubled whenever a stream runs past its end.
3. Output.  Draw j reads position j >= 1 through XSL-RR: hi ^ lo rotated
   right by hi >> 58.  `random()` is (out >> 11) 2^-53.  `integers(low,
   high)` is Lemire's bounded method on 32-bit words: a draw's low half,
   then the high half that numpy buffers, then the next draw's low half.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# PCG64's multiplier a, and the odd q with a - 1 = 4q
_A = 0x2360ED051FC65DA44385DF649FCCF645
_Q_INV = pow((_A - 1) >> 2, -1, 1 << 128)
# Draws evaluated per pass, so that a pass's temporaries stay in cache:
# drawing 250 benchmark trials took 38.6 us per trial in passes of 1024
# draws, 35.2 us with 2048, 32.5 us with 4096, 36.7 us with 8192 and 40.1 us
# in one pass per call (medians of 60 interleaved draws, 2-core x86_64).
CHUNK = 4096
# Positions the table covers when it is first built.
FIRST_POSITIONS = 1024

# B_j for the positions j below its length, as rows of hi and lo words;
# built by the first draw, not at import
_table = None


def _positions(n: int) -> np.ndarray:
    """The table of B_j, doubled until it covers positions below n."""
    global _table
    have = 0 if _table is None else _table.shape[1]
    if have < n:
        size = max(have, FIRST_POSITIONS)
        while size < n:
            size *= 2
        # a^(j+1) mod 2^130 gives B_j mod 2^128
        power, mask = pow(_A, have + 1, 1 << 130), (1 << 130) - 1
        words = []
        for _ in range(have, size):
            b = (power - 1) >> 2
            words += (b >> 64 & _M64, b & _M64)
            power = power * _A & mask
        grown = np.array(words, dtype=np.uint64).reshape(-1, 2).T
        _table = grown if _table is None else np.hstack([_table, grown])
    return _table


def _words(n: int) -> list[int]:
    """SeedSequence's entropy words of an int n >= 0, low word first."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(value: np.ndarray, const: int,
             mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under the hash constant `const`,
    and the next constant."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the pool word x with the hashed word y."""
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _seed(master_seed: int, indices: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 64-bit words (X hi, X lo, inc hi, inc lo) of each index's PCG64,
    X = seed + inc being the state before its last seeding step."""
    head = _words(master_seed)
    tails = np.stack([indices & _M32, indices >> 32])
    lengths = len(head) + np.where(indices > _M32, 2, 1)
    entropy = [np.full(indices.size, w, dtype=np.uint64) for w in head]
    entropy += list(tails)
    entropy += [np.zeros_like(indices)] * (_POOL_WORDS - len(entropy))

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_WORDS]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for src in range(_POOL_WORDS, len(entropy)):
        # a word past a stream's entropy leaves its pool alone
        live = src < lengths
        for dst in range(_POOL_WORDS):
            value, const = _hashmix(entropy[src], const, _MULT_A)
            pool[dst] = np.where(live, _mix(pool[dst], value), pool[dst])

    const = _INIT_B
    state = []
    for k in range(2 * _POOL_WORDS):
        value, const = _hashmix(pool[k % _POOL_WORDS], const, _MULT_B)
        state.append(value)
    seed_hi, seed_lo, seq_hi, seq_lo = (
        state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    x_lo = seed_lo + inc_lo
    x_hi = seed_hi + inc_hi + (x_lo < inc_lo)
    return x_hi, x_lo, inc_hi, inc_lo


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) words of a b mod 2^128.  The high word of a_lo b_lo is
    summed from the products of their 32-bit halves."""
    a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    low = a0 * b1 + (mid & _M32)
    hi = a1 * b1 + (mid >> 32) + (low >> 32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


class Streams:
    """One PCG64 stream per trial index, drawn with array operations."""

    def __init__(self, master_seed: int, indices):
        indices = np.asarray(indices, dtype=np.uint64)
        x_hi, x_lo, inc_hi, inc_lo = _seed(master_seed, indices)
        # Z = 4X + inc / q
        z_hi, z_lo = _mul128(inc_hi, inc_lo, np.uint64(_Q_INV >> 64),
                             np.uint64(_Q_INV & _M64))
        z_lo = z_lo + (x_lo << 2)
        z_hi = z_hi + (x_hi << 2 | x_lo >> 62) + (z_lo < x_lo << 2)
        self._words = np.stack([z_hi, z_lo, x_hi, x_lo])
        self._position = np.zeros(indices.size, dtype=np.intp)

    def _outputs(self, rows: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """XSL-RR outputs of streams `rows` at `positions`."""
        table = _positions(int(positions.max(initial=0)) + 1)
        out = np.empty(rows.size, dtype=np.uint64)
        for start in range(0, rows.size, CHUNK):
            part = slice(start, start + CHUNK)
            b_hi, b_lo = table.take(positions[part], axis=1)
            z_hi, z_lo, x_hi, x_lo = self._words.take(rows[part], axis=1)
            hi, lo = _mul128(b_hi, b_lo, z_hi, z_lo)
            lo += x_lo
            hi += x_hi + (lo < x_lo)
            rot = hi >> 58
            hi ^= lo
            out[part] = hi >> rot | hi << (-rot & 63)
        return out

    def integers(self, low: int, high: int) -> np.ndarray:
        """`Generator.integers(low, high)` of every stream, as its first
        draw.  A range of one draws nothing; a range r up to 2^32 - 1 takes
        Lemire's method with numpy's threshold (2^32 - r) mod r on one
        32-bit word after another."""
        span = high - low
        if not 1 <= span < 2 ** 32:
            raise ValueError(f"integers over a range of {span} are not replayed")
        values = np.full(self._position.size, low, dtype=np.int64)
        if span == 1:
            return values
        threshold = (2 ** 32 - span) % span
        word = np.zeros(values.size, dtype=np.intp)   # index of the word read
        todo = np.arange(values.size)
        while todo.size:
            out = self._outputs(todo, 1 + word[todo] // 2)
            half = (32 * (word[todo] % 2)).astype(np.uint64)
            m = (out >> half & _M32) * span
            ok = m & _M32 >= threshold
            values[todo[ok]] += (m[ok] >> 32).astype(np.int64)
            todo = todo[~ok]
            word[todo] += 1
        self._position += word // 2 + 1
        return values

    def random(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """`Generator.random(counts[r])` of stream rows[r], for each r in
        turn, as one flat array."""
        starts = np.cumsum(counts) - counts
        positions = np.arange(1, counts.sum() + 1) + np.repeat(
            self._position[rows] - starts, counts)
        self._position[rows] += counts
        out = self._outputs(np.repeat(rows, counts), positions)
        return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
