"""Pagh--Pagh style "uniform on a fixed set" hash family stand-in.

Theorem 6 of the paper (Pagh and Pagh 2008) provides a family of functions
``[u] -> [v]`` such that, for any *fixed but unknown* set ``S`` of at most
``z`` keys, a random member of the family is fully independent when
restricted to ``S`` with probability ``1 - O(1/z^c)``, can be stored in
``O(z log v)`` bits, and evaluates in constant time.  The fast version of
RoughEstimator (Lemma 5) uses this family so that its ``h3`` behaves like a
truly random function on the at most ``2 K_RE`` surviving items.

What the correctness proofs consume is only that distributional
guarantee, so :class:`LazyUniformHash` realises it with the library's one
model of a truly random function: the seed-keyed splitmix64 oracle of
:mod:`repro.hashing.random_oracle`.  The function is fixed by a 64-bit
seed drawn at construction, so equal seeds give equal functions and
sharded ingestion sees exactly the function sequential ingestion sees.
Space is still charged at the paper's ``capacity * ceil(log2 v)`` bits.
See "Hash-family stand-ins" in ``docs/architecture.md``.
"""

from __future__ import annotations

import random
from typing import Optional

from ..exceptions import ParameterError
from .entropy import fresh_rng
from .random_oracle import RandomOracle

__all__ = ["LazyUniformHash"]


class LazyUniformHash(RandomOracle):
    """A seed-keyed random function with Theorem 6's space accounting.

    Attributes:
        universe_size: size of the key domain ``[0, u)``.
        range_size: size of the output range ``[0, v)``.
        capacity: the ``z`` of Theorem 6 — the largest set on which the
            family promises full independence (and the size used for space
            accounting).
        seed: the function's identity.
    """

    __slots__ = ("capacity",)

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        capacity: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; must be positive.
            capacity: maximum number of distinct keys for which full
                independence is promised; must be positive.
            rng: source of the 64-bit seed.
        """
        if capacity <= 0:
            raise ParameterError("capacity must be positive")
        super().__init__(universe_size, range_size, seed=fresh_rng(rng).getrandbits(64))
        self.capacity = capacity

    # ``draw_value`` and ``hash_batch`` are defined on this class itself so
    # per-class instrumentation (perfbench/tracing.py) can wrap them.

    def draw_value(self, key: int) -> int:
        """Return the function's value on ``key`` (same as ``self(key)``)."""
        return self(key)

    def hash_batch(self, keys):
        """Evaluate the function on a whole array of keys (see the base class)."""
        return super().hash_batch(keys)

    def space_bits(self) -> int:
        """Return the paper-model space cost of storing this function.

        Theorem 6 charges ``O(z log v)`` bits for a capacity-``z`` member of
        the family; we report exactly ``capacity * ceil(log2(range_size))``
        so that the space benchmarks account for what the real construction
        would occupy.
        """
        value_bits = max((self.range_size - 1).bit_length(), 1)
        return self.capacity * value_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "LazyUniformHash(universe_size=%d, range_size=%d, capacity=%d)"
            % (self.universe_size, self.range_size, self.capacity)
        )
