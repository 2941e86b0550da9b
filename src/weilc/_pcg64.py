"""numpy's ``Generator(PCG64(seed))`` in pure Python, for the draws weilc makes.

Every draw equals numpy's bit for bit (O'Neill 2014; Lemire, ACM TOMACS 2019):

* the seed's 32-bit words are hashed into a 4-word pool as ``SeedSequence``
  does, and ``generate_state(4, uint64)`` gives the initial state and the
  stream; ``pcg64_set_seed`` then sets state 0, ``inc = (seq << 1) | 1``,
  steps, adds the initial state and steps again;
* a draw steps the 128-bit LCG and returns the XSL-RR output of the new state;
* ``random`` is the top 53 bits of a draw times 2**-53, and ``uniform`` is
  ``low + (high - low) * random``;
* ``integers`` runs Lemire's bounded method on 32-bit halves: a draw gives
  its low half and keeps the high half for the next ``integers`` call,
  whatever other draws come between, as numpy's ``has_uint32`` buffer does.

Only these draws are replicated; a size is None, an int or a (rows, cols)
pair, and sized draws come back as (nested) lists in C order.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = (2549297995355413924 << 64) + 4865540595714422341
_TWO_M53 = 2.0**-53
# SeedSequence's hash constants; the shift is half the 32-bit word
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64), as Python ints."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


class PCG64:
    """A seeded stream of numpy-identical ``random``, ``uniform`` and ``integers`` draws."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int):
        s0, s1, q0, q1 = _seed_words(seed)
        self._inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        self._state = (self._inc + (s0 << 64 | s1)) * _MULT + self._inc & _MASK128
        self._spare: int | None = None  # the kept high half of a 32-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << 64 - rot) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            out, self._spare = self._spare, None
            return out
        x = self._next64()
        self._spare = x >> 32
        return x & _MASK32

    def _double(self) -> float:
        # _next64() >> 11 with the step inlined, for the most frequent draw
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return ((x >> rot | x << 64 - rot) >> 11 & _MASK53) * _TWO_M53

    def random(self, size=None):
        return self._double() if size is None else self.uniform(0.0, 1.0, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        span, draw = high - low, self._double
        if size is None:
            return low + span * draw()
        if isinstance(size, int):
            return [low + span * draw() for _ in range(size)]
        rows, cols = size
        return [[low + span * draw() for _ in range(cols)] for _ in range(rows)]

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) without high; a range of one
        value draws nothing.  Ranges wider than 2**32 are refused."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"integers range [{low}, {high}) is empty or wider than 2**32")
        if span == 1:
            return low
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)
