"""The shared hash-function bundle used by the KNW F0 components.

Figure 3 and the small-F0 subroutine of Section 3.3 deliberately share
their hash functions: the paper's ``h3`` is given range ``K' = 2K`` and the
main algorithm evaluates it "modulo K when used in Figure 3".  Bundling the
three functions in one object lets the combined estimator
(:class:`repro.core.knw.KNWDistinctCounter`) pay for them once, exactly as
the paper accounts, while still allowing each component to be constructed
stand-alone (it then builds a private bundle).

The bundle contains:

* ``h1 : [n] -> [0, n-1]`` — pairwise independent; its ``lsb`` gives the
  subsampling level of an item.
* ``h2 : [n] -> [(2K)^3]`` — pairwise independent; spreads items so the
  ones that matter are perfectly hashed w.h.p.
* ``h3 : [(2K)^3] -> [2K]`` — k-wise independent for
  ``k = Theta(log(1/eps)/log log(1/eps))`` (Lemma 2's requirement); the
  main sketch reduces its output modulo ``K``.
"""

from __future__ import annotations

import random
from typing import Optional

from ..bitstructs.space import SpaceBreakdown
from ..exceptions import ParameterError
from ..hashing.bitops import is_power_of_two, lsb, lsb_batch
from ..hashing.kwise import KWiseHash, required_independence
from ..hashing.siegel import SiegelHash
from ..hashing.universal import PairwiseHash
from ..vectorize import as_key_array, np

__all__ = ["F0HashBundle"]


class F0HashBundle:
    """The (h1, h2, h3) triple shared by the F0 components.

    Attributes:
        universe_size: the universe size ``n``.
        bins: the main sketch's ``K`` (a power of two).
        extended_bins: ``2K`` — the range of ``h3`` (shared with small-F0).
    """

    def __init__(
        self,
        universe_size: int,
        bins: int,
        eps_hint: float,
        seed: Optional[int] = None,
        use_fast_family: bool = False,
    ) -> None:
        """Draw the three hash functions.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            bins: the main sketch's ``K``; must be a power of two >= 32.
            eps_hint: the relative-error target, used only to size the
                independence of ``h3`` per Lemma 2.
            seed: RNG seed.
            use_fast_family: draw ``h3`` from the Siegel-style constant-time
                family (Theorem 7) instead of the Carter--Wegman polynomial
                family — the Theorem 9 configuration.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if bins < 32 or not is_power_of_two(bins):
            raise ParameterError("bins (K) must be a power of two and at least 32")
        if not 0.0 < eps_hint < 1.0:
            raise ParameterError("eps_hint must lie in (0, 1)")
        self.universe_size = universe_size
        self.bins = bins
        self.extended_bins = 2 * bins
        rng = random.Random(seed)
        self._level_limit = max((universe_size - 1).bit_length(), 1)
        domain_cubed = self.extended_bins ** 3
        self.h1 = PairwiseHash(universe_size, universe_size, rng=rng)
        self.h2 = PairwiseHash(universe_size, domain_cubed, rng=rng)
        if use_fast_family:
            self.h3 = SiegelHash(domain_cubed, self.extended_bins, rng=rng)
        else:
            independence = required_independence(self.extended_bins, eps_hint)
            self.h3 = KWiseHash(
                domain_cubed, self.extended_bins, independence=independence, rng=rng
            )
        # One-entry memo so that the combined estimator, which feeds the same
        # item to both the small-F0 subroutine and the main sketch, evaluates
        # the h3(h2(.)) composition once per stream update.
        self._last_item = -1
        self._last_extended_bin = -1

    # -- the three per-item quantities the algorithms consume ----------------------

    def level(self, item: int) -> int:
        """Return ``lsb(h1(item))`` — the subsampling level of the item."""
        return lsb(self.h1(item), zero_value=self._level_limit)

    def extended_bin(self, item: int) -> int:
        """Return ``h3(h2(item))`` in ``[0, 2K)`` (the small-F0 bin)."""
        if item == self._last_item:
            return self._last_extended_bin
        value = self.h3(self.h2(item))
        self._last_item = item
        self._last_extended_bin = value
        return value

    def main_bin(self, item: int) -> int:
        """Return ``h3(h2(item)) mod K`` (the Figure 3 counter index)."""
        return self.extended_bin(item) % self.bins

    # -- batch forms ---------------------------------------------------------------

    def level_batch(self, items):
        """Return ``lsb(h1(item))`` for a whole chunk (``int64`` ndarray).

        The batch counterpart of :meth:`level`: one pairwise-hash pass and
        one vectorized de Bruijn extraction.
        """
        keys = as_key_array(items, self.universe_size)
        # lsb_batch handles object-dtype hashes (universes beyond 2^61)
        # exactly, via the scalar lsb.
        return lsb_batch(self.h1.hash_batch_validated(keys), zero_value=self._level_limit)

    def extended_bin_batch(self, items):
        """Return ``h3(h2(item))`` in ``[0, 2K)`` for a whole chunk.

        The combined estimator computes this once per chunk and shares the
        result between the small-F0 subroutine and the Figure 3 core —
        the batch equivalent of the scalar one-entry memo below.
        """
        keys = as_key_array(items, self.universe_size)
        return self.h3.hash_batch_validated(self.h2.hash_batch_validated(keys))

    def main_bin_batch(self, items, extended_bins=None):
        """Return the Figure 3 counter indices for a whole chunk.

        Args:
            items: the chunk of identifiers.
            extended_bins: a precomputed :meth:`extended_bin_batch` result
                to reduce modulo ``K`` instead of re-hashing (the sharing
                the paper prescribes for the combined estimator).
        """
        if extended_bins is None:
            extended_bins = self.extended_bin_batch(items)
        if extended_bins.dtype == object:
            return (extended_bins % self.bins).astype(np.int64)
        # Extended bins live in [0, 2K); int64 avoids mixed-dtype promotion.
        return extended_bins.astype(np.int64) % np.int64(self.bins)

    @property
    def level_limit(self) -> int:
        """The value assigned to ``lsb(0)``, i.e. ``log2(n)``."""
        return self._level_limit

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost of the bundle."""
        breakdown = SpaceBreakdown("f0-hash-bundle")
        breakdown.add_component("h1", self.h1)
        breakdown.add_component("h2", self.h2)
        breakdown.add_component("h3", self.h3)
        return breakdown

    def space_bits(self) -> int:
        """Return the total space cost of the three functions."""
        return self.space_breakdown().total()
