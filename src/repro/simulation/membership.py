"""Membership views for gossip target selection.

Section 3 of the paper assumes "a scalable membership protocol is available"
(e.g. SCAMP) and deliberately scopes membership out of the analysis: every
member selects its gossip targets "uniformly at random from its membership
view".  The analytical model implicitly assumes that view is the whole group.

Two view providers are implemented:

* :class:`FullView` — every member knows every other member (the paper's
  implicit assumption and the default everywhere).
* :class:`UniformPartialView` — every member knows a fixed-size uniformly
  random subset of the group, refreshed once per execution (a SCAMP-like
  partial view).  Used by the membership ablation benchmark to show how the
  reliability degrades when the view is much smaller than the group.

Views expose two sampling operations:

* :meth:`MembershipView.sample_targets` — draw ``k`` distinct gossip targets
  for one member (never including the member itself).  Small draws use
  Floyd's algorithm (O(k) expected work); draws that are a large fraction of
  the view switch to a numpy partial permutation.
* :meth:`MembershipView.sample_targets_batch` — draw distinct targets for a
  whole *batch* of (member, fanout) pairs in a handful of array operations.
  This is the hot path of the batched Monte-Carlo engine
  (:func:`repro.simulation.gossip.simulate_gossip_batch`): per gossip round
  it replaces thousands of Python-level Floyd loops with one vectorised
  rejection pass (draw with replacement, redraw the rare rows that collide)
  backed by an exact random-key top-``k`` (Gumbel-top-k style argpartition)
  fallback for rows whose fanout is a large fraction of the view.

The distinct-sampling kernels themselves live in
:mod:`repro.utils.sampling` so the graph-percolation ensemble
(:mod:`repro.graphs.ensemble`) and the simulator share one implementation;
``sample_distinct`` and ``sample_distinct_rows`` are re-exported here for
backwards compatibility.

Views are static: they name peers whether or not those peers are currently
in the group.  Join/leave events live in the churn plane
(:mod:`repro.simulation.churn`), and the
:class:`~repro.simulation.transport.Transport` below both batched engines
books a send to an absent peer as sent but wasted, exactly as a real system
would until its peer-sampling service repairs the view.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import numpy.typing as npt

from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import (
    sample_distinct,
    sample_distinct_rows,
    sample_distinct_rows_excluding,
)
from repro.utils.validation import check_integer

__all__ = [
    "MembershipView",
    "FullView",
    "UniformPartialView",
    "sample_distinct",
    "sample_distinct_rows",
]


def _check_batch_args(
    members: npt.ArrayLike, fanouts: npt.ArrayLike, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cast and validate the (members, fanouts) pair of a batched draw.

    Mirrors the scalar path's member validation: out-of-range identifiers
    raise instead of silently wrapping through numpy negative indexing.
    """
    members = np.asarray(members, dtype=np.int64)
    fanouts = np.asarray(fanouts, dtype=np.int64)
    if members.shape != fanouts.shape:
        raise ValueError("members and fanouts must have the same shape")
    if members.size and (members.min() < 0 or members.max() >= n):
        raise ValueError(f"members must be identifiers in [0, {n}), got values outside")
    return members, fanouts


class MembershipView(ABC):
    """Abstract membership-view provider for a group of ``n`` members."""

    def __init__(self, n: int) -> None:
        self.n = check_integer("n", n, minimum=1)

    @abstractmethod
    def view_of(self, member: int) -> np.ndarray:
        """Return the member identifiers visible to ``member`` (excluding itself)."""

    @abstractmethod
    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` distinct gossip targets for ``member`` from its view."""

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw distinct targets for a whole batch of (member, fanout) pairs.

        Parameters
        ----------
        members:
            Sender identifiers, shape ``(M,)`` (duplicates allowed — the
            batched engine sends the same member id from different replicas).
        fanouts:
            Requested fanout per sender, shape ``(M,)``; clipped per row to
            the sender's view size.
        rng:
            Generator supplying all randomness of the draw.

        Returns
        -------
        (targets, senders):
            Flat arrays of equal length: ``targets[i]`` is one gossip target
            drawn for the sender at index ``senders[i]`` of ``members``.
            Row ``j``'s targets are distinct and never include
            ``members[j]``.

        The base implementation loops over :meth:`sample_targets` (correct
        for any view); :class:`FullView` and :class:`UniformPartialView`
        override it with fully vectorised paths.
        """
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        batches = [
            self.sample_targets(int(member), int(k), rng)
            for member, k in zip(members, fanouts, strict=True)
        ]
        senders = np.repeat(
            np.arange(members.size, dtype=np.int64),
            [len(b) for b in batches],
        )
        if not batches:
            return np.empty(0, dtype=np.int64), senders
        return np.concatenate(batches).astype(np.int64, copy=False), senders

    def view_size(self, member: int) -> int:
        """Return the number of members visible to ``member``."""
        return int(len(self.view_of(member)))

    def reset(self, seed: SeedLike = None) -> None:
        """Re-randomise the view (no-op for deterministic views)."""


class FullView(MembershipView):
    """Every member sees the entire group (the analytical model's assumption)."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._all_members = np.arange(self.n, dtype=np.int64)
        self._all_members.setflags(write=False)
        self._cached_member: int | None = None
        self._cached_view: np.ndarray | None = None

    def view_of(self, member: int) -> np.ndarray:
        """Return the read-only view of ``member`` (everyone but itself).

        The last requested view is cached, so the common access pattern —
        metric/ablation code hitting the same member repeatedly — stops
        reallocating O(n) per lookup; a different member costs one slice
        concatenation of the shared cached arange.  Memory stays O(n).
        """
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        if member != self._cached_member:
            view = np.concatenate(
                (self._all_members[:member], self._all_members[member + 1 :])
            )
            view.setflags(write=False)
            self._cached_member = member
            self._cached_view = view
        return self._cached_view

    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        return sample_distinct(rng, self.n, k, exclude=member)

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        # Each row samples from the n-1 virtual slots with its own id removed
        # (the shared exclusion kernel restores real identifiers).
        ks = np.minimum(fanouts, self.n - 1)
        matrix, valid = sample_distinct_rows_excluding(rng, self.n, fanouts, members)
        senders = np.repeat(np.arange(members.size, dtype=np.int64), np.maximum(ks, 0))
        # The shared sampler may hand back a narrower dtype; the view API
        # contract (and the other implementations) is int64 identifiers.
        return matrix[valid].astype(np.int64, copy=False), senders


class UniformPartialView(MembershipView):
    """Every member sees a fixed-size uniformly random subset of the group.

    Parameters
    ----------
    n:
        Group size.
    view_size:
        Number of other members each member knows.  Values >= n - 1 degrade
        to a full view.
    seed:
        Seed for the view assignment (views are re-drawn by :meth:`reset`).
    """

    def __init__(self, n: int, view_size: int, *, seed: SeedLike = None) -> None:
        super().__init__(n)
        self._view_size = check_integer("view_size", view_size, minimum=1)
        self._view_matrix = np.zeros((0, 0), dtype=np.int64)
        self.reset(seed)

    def reset(self, seed: SeedLike = None) -> None:
        rng = as_generator(seed)
        size = min(self._view_size, self.n - 1)
        # All views share one size, so they pack into an (n, size) matrix the
        # batched sampler can gather from without Python-level lookups.
        matrix = np.empty((self.n, size), dtype=np.int64)
        for member in range(self.n):
            matrix[member] = np.sort(sample_distinct(rng, self.n, size, exclude=member))
        self._view_matrix = matrix

    def view_of(self, member: int) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        return self._view_matrix[member]

    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        view = self._view_matrix[member]
        if len(view) == 0:
            return np.empty(0, dtype=np.int64)
        k = min(int(k), len(view))
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        return view[sample_distinct(rng, len(view), k)]

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        size = self._view_matrix.shape[1]
        ks = np.minimum(fanouts, size)
        idx, valid = sample_distinct_rows(rng, size, ks)
        senders = np.repeat(np.arange(members.size, dtype=np.int64), np.maximum(ks, 0))
        if not idx.shape[1]:
            return np.empty(0, dtype=np.int64), senders
        targets = self._view_matrix[members[:, None], idx]
        return targets[valid], senders
