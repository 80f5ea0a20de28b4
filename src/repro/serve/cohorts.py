"""Named cohorts: ordered member lists and their stacked group tables.

Group answers are exact because the paper's prefix integrals add across
members, so a cohort is an ordered member list plus one
:class:`CohortTable`: the members' tables as one
:class:`~repro.core.integral.PrefixStack` (the evaluator every read
uses), reduced in member order.  A
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

from ..core.integral import PrefixStack, as_count, check_query

if TYPE_CHECKING:
    from .engine import PrefixTable

__all__ = ["CohortOwner", "CohortRegistry", "CohortTable"]

ArrayLike = Union[int, float, np.ndarray]

#: (member, point) pairs a :class:`CohortTable` evaluates per vectorized
#: pass, so each temporary of a pass stays near 64 KB however large the
#: cohort or the batch.
_PAIRS_PER_PASS = 8192


class CohortTable:
    """The members' prefix tables as one :class:`PrefixStack`, reduced in
    member order.

    The stack places every (member, point) pair with one ``searchsorted``
    over per-member key offsets, and each member row is bitwise equal to
    that member's own :meth:`PrefixTable.range_sum`.  This class adds the
    group semantics on top: the member rows are reduced by an explicit
    loop in member order (``np.add.reduce`` over the member axis sums a
    one-range batch pairwise, which differs in the last bit from the
    sequential sum a caller adding the member answers would get), so
    group answers equal that member-order reduction byte for byte; the
    top-k ranking of the merged partition; and the bound of
    :data:`_PAIRS_PER_PASS` pairs per evaluation.  Ranges are checked
    (:func:`~repro.core.integral.check_query`) once per distinct domain
    length in member order, so the first failing member names the error.

    The table is immutable; :class:`CohortRegistry` caches one per named
    cohort, keyed by the members' version vector.
    """

    __slots__ = ("_stack", "_domains", "_ranking")

    def __init__(self, tables: Sequence[PrefixTable]) -> None:
        if not tables:
            raise ValueError("group queries need at least one member")
        self._stack = PrefixStack(
            [prefix for table in tables for prefix in table.prefixes]
        )
        self._domains = list(dict.fromkeys(self._stack.ns.tolist()))
        # (lefts, rights, masses, order) of the merged partition, set by
        # the first top_k call.
        self._ranking: Optional[Tuple[np.ndarray, ...]] = None

    def _sum_members(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Every member's range sums over closed ``[left, right]`` (1-D
        arrays), added one member row at a time in member order."""
        points = np.concatenate((right + 1, left))
        members = self._stack.ns.size
        per_pass = max(1, _PAIRS_PER_PASS // max(points.size, 1))
        total = None
        for first in range(0, members, per_pass):
            rows = np.arange(first, min(first + per_pass, members))[:, None]
            both = self._stack.integral(points, rows)
            for row in both[:, : left.size] - both[:, left.size :]:
                total = row if total is None else total + row
        return total

    def range_sum(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``sum_{member} sum_{i in [a, b]} f_member(i)`` over closed ranges."""
        for n in self._domains:
            aa, bb = check_query("range_sum", (a, b), (n,)).passed()
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
            lefts = np.unique(self._stack.lefts)
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
