"""The simulator's open-lives index and the worlds it must not change.

:class:`OpenLifeIndex` replaces ``rng.choice`` over filtered copies of
``open_lives`` with a rank query.  Two things keep every world as it
was: the index ranks exactly the list the filter would have built, and
``randrange(n)`` draws what ``choice`` over ``n`` items drew.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.simulation.config import WorldConfig
from repro.simulation.world import OpenLifeIndex, WorldSimulator

TRANSFERABLE, UNRESERVED = OpenLifeIndex.TRANSFERABLE, OpenLifeIndex.UNRESERVED


class _NaiveOpenLives:
    """The dict-and-set bookkeeping the index stands in for."""

    def __init__(self):
        self.via_nir = {}  # insertion-ordered, like ``open_lives``
        self.reserved = set()

    def filtered(self, which):
        return [
            asn for asn, nir in self.via_nir.items()
            if asn not in self.reserved
            and (which == UNRESERVED or not nir)
        ]


def _check(index, naive):
    for which in (TRANSFERABLE, UNRESERVED):
        expected = naive.filtered(which)
        assert index.count(which) == len(expected)
        assert [index.kth(which, k) for k in range(len(expected))] == expected


class TestOpenLifeIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2021])
    def test_random_operations_match_the_filtered_list(self, seed):
        rng = random.Random(seed)
        index, naive = OpenLifeIndex(capacity=2), _NaiveOpenLives()
        universe = range(1, 120)
        for _ in range(1500):
            op = rng.random()
            asn = rng.choice(universe)
            if op < 0.45:
                # an ASN opened again goes to the end
                if asn not in naive.via_nir:
                    via_nir = rng.random() < 0.3
                    index.add(asn, via_nir=via_nir)
                    naive.via_nir[asn] = via_nir
                    naive.reserved.discard(asn)
            elif op < 0.7:
                if asn in naive.via_nir:
                    index.remove(asn)
                    del naive.via_nir[asn]
            elif op < 0.85:
                if asn in naive.via_nir:
                    index.set_reserved(asn, True)
                    naive.reserved.add(asn)
            else:
                # returns also discard ASNs that are no longer open
                index.set_reserved(asn, False)
                naive.reserved.discard(asn)
            _check(index, naive)
        # the universe was re-added often enough to force several grows
        assert index._capacity >= 128

    def test_opening_an_open_asn_raises(self):
        index = OpenLifeIndex()
        index.add(7, via_nir=False)
        with pytest.raises(ValueError):
            index.add(7, via_nir=True)

    def test_rank_out_of_range_raises(self):
        index = OpenLifeIndex(capacity=1)
        index.add(7, via_nir=True)
        assert index.count(UNRESERVED) == 1
        assert index.count(TRANSFERABLE) == 0
        with pytest.raises(IndexError):
            index.kth(TRANSFERABLE, 0)
        with pytest.raises(IndexError):
            index.kth(UNRESERVED, 1)
        with pytest.raises(IndexError):
            index.kth(UNRESERVED, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**17 + 3])
    def test_randrange_draws_what_choice_drew(self, n):
        a, b = random.Random(n), random.Random(n)
        items = range(n)
        for _ in range(50):
            assert a.choice(items) == b.randrange(n)
        assert a.random() == b.random()


#: sha256 of ``repr((world.lives, world.transfers))``, recorded before
#: the index replaced the filtered scans.
PINNED_WORLDS = {
    (0, 0.006): "971319a0d1b0173205a6dad72d7ba5d28c637e9b9c2001b1e536e1d86c26ea3d",
    (7, 0.01): "d0169a1969128b6739d7a3a398d41059eff96fb9f1fb07b93bb411407a5bf46d",
    (42, 0.015): "f9ac9807dbd02d4f6666598834097fb417445f2cb55ac02be6811f12bfd4a0bc",
}


@pytest.mark.parametrize("seed,scale", sorted(PINNED_WORLDS))
def test_world_matches_pinned_digest(seed, scale):
    world = WorldSimulator(WorldConfig(seed=seed, scale=scale)).run()
    blob = repr((world.lives, world.transfers)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == PINNED_WORLDS[(seed, scale)]
