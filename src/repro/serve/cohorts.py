"""Named cohorts: ordered member lists and their stacked group tables.

Group answers are exact because the paper's prefix integrals add across
members, so a cohort is an ordered member list plus one
:class:`CohortTable` stacking the members' tables.  A
:class:`~repro.serve.store.SynopsisStore` and a
:class:`~repro.serve.router.ShardRouter` each hold one
:class:`CohortRegistry`, which owns that state once: validated
definitions, group-target resolution, pruning on remove, one cached
stacked table per named cohort keyed by the members' ``(member,
version)`` pairs, and the manifest's ``"cohorts"`` table.  The owner
supplies only how to test membership, read member versions and fetch a
member's ``(version, PrefixTable)``.

Lock order: the registry lock is never taken under a store lock.  A
definition checks membership and inserts under the registry lock, and
an owner prunes only after its store removal returns, so a cohort never
names a removed entry.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.integral import as_count, as_positions

if TYPE_CHECKING:
    from .engine import PrefixTable

__all__ = ["CohortOwner", "CohortRegistry", "CohortTable"]

ArrayLike = Union[int, float, np.ndarray]

#: (member, point) pairs a :class:`CohortTable` evaluates per vectorized
#: pass, so each temporary of a pass stays near 64 KB however large the
#: cohort or the batch.
_PAIRS_PER_PASS = 8192


class CohortTable:
    """The members' prefix tables stacked into one vectorized evaluator.

    Every member's :class:`PiecewisePrefix` arrays (piece lefts, lengths,
    coefficient rows and boundary masses) are concatenated, with member
    ``j``'s lefts shifted by a per-member offset so one ``searchsorted``
    over the stacked keys locates every (member, point) pair at once.
    The evaluation then runs the same elementwise arithmetic as
    :meth:`PiecewisePrefix.integral`, so each member row is bitwise equal
    to that member's own :meth:`PrefixTable.range_sum`.

    The member rows are reduced by an explicit loop in member order:
    ``np.add.reduce`` over the member axis sums a one-range batch
    pairwise, which differs in the last bit from the sequential sum a
    caller adding the member answers would get.  Group answers therefore
    equal that member-order reduction byte for byte.

    The table is immutable; :class:`CohortRegistry` caches one per named
    cohort, keyed by the members' version vector.
    """

    __slots__ = (
        "_ns",
        "_domains",
        "_offsets",
        "_keys",
        "_lefts",
        "_lengths",
        "_coeffs",
        "_base",
        "_widths",
        "_ranking",
    )

    def __init__(self, tables: Sequence[PrefixTable]) -> None:
        if not tables:
            raise ValueError("group queries need at least one member")
        prefixes = [table.prefix for table in tables]
        self._ns = np.array([prefix.n for prefix in prefixes], dtype=np.int64)
        # Distinct domain lengths in first-member order: a range is checked
        # once per length, so the first member it fails on names the error.
        self._domains = list(dict.fromkeys(self._ns.tolist()))
        # Member j's query x in [0, n_j] becomes the key offsets[j] + x,
        # which sorts after every key of members before j and before every
        # key of members after it (lefts start at 0 and stay below n_j).
        self._offsets = np.concatenate(([0], np.cumsum(self._ns + 1)[:-1]))
        counts = [prefix.num_pieces for prefix in prefixes]
        self._lefts = np.concatenate([prefix.lefts for prefix in prefixes])
        self._keys = self._lefts + np.repeat(self._offsets, counts)
        self._lengths = np.concatenate([prefix.lengths for prefix in prefixes])
        self._base = np.concatenate([prefix.boundary[:-1] for prefix in prefixes])
        widths = np.array(
            [prefix.coeffs.shape[1] for prefix in prefixes], dtype=np.int64
        )
        # One row per coefficient power (so each Horner step gathers one
        # contiguous row), zero-padded above a narrower member's degree.
        coeffs = np.zeros((int(widths.max()), self._lefts.size))
        start = 0
        for prefix, count in zip(prefixes, counts):
            coeffs[: prefix.coeffs.shape[1], start : start + count] = (
                prefix.coeffs.T
            )
            start += count
        self._coeffs = coeffs
        # Mixed widths need the per-member start of Horner's recurrence.
        self._widths = widths[:, None] if np.any(widths != widths[0]) else None
        # (lefts, rights, masses, order) of the merged partition, set by
        # the first top_k call.
        self._ranking: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def nbytes(self) -> int:
        """Bytes held by the stacked arrays."""
        return sum(
            array.nbytes
            for array in (
                self._ns,
                self._offsets,
                self._keys,
                self._lefts,
                self._lengths,
                self._coeffs,
                self._base,
            )
        )

    def _integrals(self, xs: np.ndarray, members: slice) -> np.ndarray:
        """``F_j(x)`` for members ``j`` in ``members`` (rows) and points
        ``x`` (columns); ``xs`` is 1-D int64 inside every ``[0, n_j]``."""
        keys = self._offsets[members, None] + xs
        u = np.searchsorted(self._keys, keys, side="right") - 1
        s = 2.0 * (xs - self._lefts[u]) / self._lengths[u] - 1.0
        coeffs = self._coeffs
        top = coeffs.shape[0] - 1
        out = coeffs[top][u]
        for power in range(top - 1, -1, -1):
            row = coeffs[power][u]
            step = out * s + row
            if self._widths is not None:
                # A member whose own top power is at or below this one
                # starts its recurrence here, as its own table would.
                step = np.where(self._widths[members] > power + 1, step, row)
            out = step
        return self._base[u] + out

    def _sum_members(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Every member's range sums over closed ``[left, right]`` (1-D
        arrays), added one member row at a time in member order."""
        points = np.concatenate((right + 1, left))
        per_pass = max(1, _PAIRS_PER_PASS // max(points.size, 1))
        total = None
        for first in range(0, self._offsets.size, per_pass):
            both = self._integrals(points, slice(first, first + per_pass))
            for row in both[:, : left.size] - both[:, left.size :]:
                total = row if total is None else total + row
        return total

    def range_sum(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``sum_{member} sum_{i in [a, b]} f_member(i)`` over closed ranges."""
        aa = as_positions(a)
        bb = as_positions(b)
        for n in self._domains:
            if np.any((aa < 0) | (bb >= n) | (aa > bb)):
                raise ValueError(f"ranges must satisfy 0 <= a <= b < {n}")
        aa, bb = np.broadcast_arrays(aa, bb)
        total = self._sum_members(aa.ravel(), bb.ravel())
        if np.ndim(a) == 0 and np.ndim(b) == 0:
            return float(total[0])
        return total.reshape(aa.shape)

    def range_mean(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """Mean of the *pooled* mass over ``[a, b]``: group sum / range length.

        The denominator is the range length, not members x length: the
        group is treated as one pooled series.
        """
        sums = self.range_sum(a, b)
        lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
        out = sums / lengths.astype(np.float64)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out

    def top_k(self, m: int) -> List[Tuple[int, int, float]]:
        """The ``m`` heaviest pieces of the group's merged partition.

        The members' piece boundaries are merged (union of left
        endpoints) and every member is summed exactly over each merged
        segment, so the ``(left, right, mass)`` triples are the heaviest
        segments of the pooled distribution, mass-descending.  Ties keep
        partition order: the ranking is a stable argsort, computed once
        per table (``argpartition`` would reorder ties).  All members must
        share one domain length.
        """
        m = as_count(m)
        if len(self._domains) > 1:
            raise ValueError(
                f"group top-k needs matching domains, got n={self._domains[0]} "
                f"and n={self._domains[1]}"
            )
        if self._ranking is None:
            n = self._domains[0]
            lefts = np.unique(self._lefts)
            rights = np.append(lefts[1:] - 1, n - 1)
            masses = self._sum_members(lefts, rights)
            order = np.argsort(-masses, kind="stable")
            self._ranking = (lefts, rights, masses, order)
        lefts, rights, masses, order = self._ranking
        return [
            (int(lefts[u]), int(rights[u]), float(masses[u])) for u in order[:m]
        ]


def _distinct(names: List[str]) -> List[str]:
    """``names``, or :exc:`ValueError` naming the first member listed twice
    (a group would count its mass twice)."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"member {name!r} is listed more than once")
        seen.add(name)
    return names


class CohortRegistry:
    """Named cohorts and one cached stacked table per cohort.

    One lock guards both maps; member versions are read and member tables
    fetched outside it.
    """

    def __init__(self) -> None:
        self._members: Dict[str, Tuple[str, ...]] = {}
        # cohort -> (((member, version), ...), member tables, stacked table)
        self._tables: Dict[str, Tuple[tuple, List[PrefixTable], CohortTable]] = {}
        self._lock = threading.Lock()

    def define(
        self, cohort: Any, members: Any, contains: Callable[[str], bool]
    ) -> None:
        """Name an ordered list of distinct members, each passing
        ``contains``; redefinition replaces the previous list."""
        if isinstance(members, str):
            # Iterating it would define one member per character.
            raise TypeError(
                f"cohort {str(cohort)!r} needs a list of entry names, "
                f"got the string {members!r}"
            )
        names = _distinct([str(m) for m in members])
        if not names:
            raise ValueError("a cohort needs at least one member")
        cohort = str(cohort)
        with self._lock:
            missing = [m for m in names if not contains(m)]
            if missing:
                raise KeyError(
                    f"cohort {cohort!r} references unknown entries: "
                    f"{', '.join(missing)}"
                )
            self._members[cohort] = tuple(names)
            self._tables.pop(cohort, None)

    def adopt(
        self, cohorts: Mapping[str, Sequence[str]], present: Container[str]
    ) -> None:
        """Define every cohort whose members are all ``present``."""
        with self._lock:
            for cohort, members in cohorts.items():
                if all(member in present for member in members):
                    self._members[cohort] = tuple(members)
                    self._tables.pop(cohort, None)

    def cohorts(self) -> Dict[str, Tuple[str, ...]]:
        """All defined cohorts as ``{name: (member, ...)}``."""
        with self._lock:
            return dict(self._members)

    def members(self, cohort: str) -> Tuple[str, ...]:
        """The ordered member names of a defined cohort."""
        with self._lock:
            try:
                return self._members[cohort]
            except KeyError:
                raise KeyError(
                    f"no cohort named {cohort!r}; defined: "
                    f"{', '.join(self._members) or '(none)'}"
                ) from None

    def resolve(self, spec: Any) -> List[str]:
        """Member names for a group query target.

        A string resolves as a cohort name first, then as a
        comma-separated name list, then as one bare entry name; any
        non-string iterable is taken as the member list itself.
        """
        if isinstance(spec, str):
            with self._lock:
                members = self._members.get(spec)
            if members is not None:
                return list(members)
            if "," not in spec:
                return [spec]
            names = [part.strip() for part in spec.split(",") if part.strip()]
        else:
            names = [str(name) for name in spec]
        return _distinct(names)

    def prune(self, name: str) -> None:
        """Drop a removed entry from every cohort; one left empty goes."""
        with self._lock:
            for cohort, members in list(self._members.items()):
                if name in members:
                    self._tables.pop(cohort, None)
                    kept = tuple(m for m in members if m != name)
                    if kept:
                        self._members[cohort] = kept
                    else:
                        del self._members[cohort]

    def table(
        self,
        spec: Any,
        members: List[str],
        read_versions: Callable[[List[str]], Sequence[Optional[int]]],
        fetch: Callable[[str], Tuple[int, PrefixTable]],
    ) -> Tuple[CohortTable, Dict[str, int]]:
        """The stacked table over ``members`` (``resolve(spec)``) and its
        ``{member: version}``.

        A named cohort's table is cached and rebuilt only when the
        versions ``read_versions`` reports moved, fetching only those
        members; any other member list gets a table for this call only.
        """
        if not members:
            raise ValueError("group queries need at least one member")
        cohort = spec if isinstance(spec, str) else None
        with self._lock:
            if cohort is not None and self._members.get(cohort) != tuple(members):
                cohort = None
            cached = self._tables.get(cohort) if cohort is not None else None
        reuse: Dict[str, Tuple[int, PrefixTable]] = {}
        if cached is not None:
            current = tuple(zip(members, read_versions(members)))
            if current == cached[0]:
                return cached[2], dict(current)
            unchanged = set(current)
            reuse = {
                name: (version, table)
                for (name, version), table in zip(cached[0], cached[1])
                if (name, version) in unchanged
            }
        # Each fetch is one consistent snapshot, so the key holds exactly
        # the versions the stacked tables carry.
        key: List[Tuple[str, int]] = []
        tables: List[PrefixTable] = []
        for name in members:
            found = reuse.get(name)
            version, table = fetch(name) if found is None else found
            key.append((name, version))
            tables.append(table)
        stacked = CohortTable(tables)
        if cohort is not None:
            with self._lock:
                # Cache only for the definition the table was built for.
                if self._members.get(cohort) == tuple(members):
                    self._tables[cohort] = (tuple(key), tables, stacked)
        return stacked, dict(key)

    def to_manifest(self, saved: Container[str]) -> Dict[str, List[str]]:
        """The manifest's ``"cohorts"`` table: each cohort restricted to
        the members a save writes, dropping any left empty."""
        cohorts = {}
        for cohort, members in self.cohorts().items():
            kept = [name for name in members if name in saved]
            if kept:
                cohorts[cohort] = kept
        return cohorts

    def load_manifest(self, raw: Any, loaded: Container[str], where: Any) -> None:
        """Adopt a manifest's ``"cohorts"`` table (``None`` when absent).

        The whole table is validated first, raising
        :exc:`~repro.serve.persistence.StoreCorruptionError` naming
        ``where``; cohorts with a member that did not load (a selective
        load) are dropped.
        """
        from .persistence import StoreCorruptionError

        if raw is None:
            return
        if not isinstance(raw, dict):
            raise StoreCorruptionError(f"invalid cohorts table in {where}")
        for cohort, members in raw.items():
            if (
                not isinstance(members, list)
                or not members
                or not all(isinstance(member, str) for member in members)
            ):
                raise StoreCorruptionError(
                    f"invalid cohorts table in {where}: cohort {cohort!r} must "
                    f"map to a non-empty list of entry names"
                )
            try:
                _distinct(members)
            except ValueError as exc:
                raise StoreCorruptionError(
                    f"invalid cohorts table in {where}: cohort {cohort!r}: {exc}"
                ) from None
        self.adopt(raw, loaded)


class CohortOwner:
    """The public cohort surface of a :class:`~repro.serve.store.SynopsisStore`
    or a :class:`~repro.serve.router.ShardRouter`, served by the
    :class:`CohortRegistry` the owner holds as ``_cohorts``."""

    _cohorts: CohortRegistry

    def define_cohort(self, cohort: str, members: Any) -> None:
        """Name an ordered list of distinct members for group-by queries.

        Every member must be a registered entry (on any shard of a
        router); redefinition replaces the previous list.  Cohorts persist
        with the store, or in a router's sharded parent manifest.
        """
        self._cohorts.define(cohort, members, self.__contains__)

    def cohorts(self) -> Dict[str, Tuple[str, ...]]:
        """All defined cohorts as ``{name: (member, ...)}``."""
        return self._cohorts.cohorts()

    def cohort_members(self, cohort: str) -> Tuple[str, ...]:
        """The ordered member names of a defined cohort."""
        return self._cohorts.members(cohort)

    def resolve_members(self, spec: Any) -> List[str]:
        """Member names for a group query target (see
        :meth:`CohortRegistry.resolve`)."""
        return self._cohorts.resolve(spec)
