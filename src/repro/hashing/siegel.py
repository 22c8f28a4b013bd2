"""Siegel-style high-independence hash family stand-in.

Theorem 7 of the paper (a corollary of Siegel 2004) provides, for a
universe ``[u] = [v^c]``, a ``v^o(1)``-wise independent family mapping
``[u] -> [v]`` that evaluates in constant time and occupies ``v^eta`` bits
for an arbitrarily small constant ``eta``.  The time-optimal KNW algorithm
(Theorem 9) draws its ``h3`` from this family so that updates run in O(1)
time while the balls-and-bins analysis (which needs
``Theta(log(1/eps)/log log(1/eps))``-wise independence) still applies.

Siegel's construction is a graph-powering scheme whose constants are
famously impractical; what the KNW proofs use is only the family's
*independence on the keys actually hashed*.  :class:`SiegelHash` therefore
is the library's seed-keyed splitmix64 oracle
(:mod:`repro.hashing.random_oracle`) with Theorem 7's declared space cost
of ``v`` bits (``eta = 1``, which the paper notes is already dominated by
the other terms).  See "Hash-family stand-ins" in ``docs/architecture.md``.
"""

from __future__ import annotations

import random
from typing import Optional

from .entropy import fresh_rng
from .random_oracle import RandomOracle

__all__ = ["SiegelHash"]


class SiegelHash(RandomOracle):
    """Stand-in for Siegel's constant-time, highly independent hash family.

    Attributes:
        universe_size: size of the key domain ``[0, u)``.
        range_size: size of the output range ``[0, v)``.
        seed: the function's identity.
    """

    __slots__ = ()

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random member of the family (a 64-bit seed from ``rng``)."""
        super().__init__(universe_size, range_size, seed=fresh_rng(rng).getrandbits(64))

    def space_bits(self) -> int:
        """Return the paper-model space cost ``v^eta`` bits with ``eta = 1``."""
        return self.range_size

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "SiegelHash(universe_size=%d, range_size=%d)" % (
            self.universe_size,
            self.range_size,
        )
