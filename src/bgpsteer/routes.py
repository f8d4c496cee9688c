"""Routes and the per-AS decision process.

AS-path convention: first element is the most recent hop, last element is
the originating AS.  A locally originated route has an empty path and
learned_on == "local"; every export prepends the sender once, so the origin's
announcement already carries the origin ASN.

`Route` is a tuple (a NamedTuple with a checking constructor): it equals,
hashes and sorts like the tuple of its fields, and a changed copy is
`r._replace(field=value)`, not `dataclasses.replace`.  `Route(...)` checks
every invariant; `tuple.__new__(Route, fields)` checks none and is the
trusted path, used only for routes built from already-checked routes and
advertisements and for `local_route`, whose constant fields need no check,
always on a literal 7-tuple (so `_make`'s length check could never fail
there, and its call is skipped).
"""

from __future__ import annotations

from typing import NamedTuple

from .topology import EMPTY, LOCAL, Prefix

LP_LOCAL = 1000  # above every default LP (`topology.default_local_pref`)

# A route may carry at most this many communities; the classic 4-byte
# encoding keeps 64 of them far below the 4096-byte message limit.
COMMUNITY_BUDGET = 64
COMMUNITY_BYTES = 4


class _CommunityFields(NamedTuple):
    high: int
    low: int


class Community(_CommunityFields):
    """Classic community value, rendered "high:low" (e.g. "100:50").  A
    tuple: it equals, hashes and sorts like (high, low)."""

    __slots__ = ()

    def __new__(cls, high: int, low: int) -> "Community":
        if not 0 <= high <= 0xFFFF:
            raise ValueError(f"community high part out of range: {high}")
        if not 0 <= low <= 0xFFFF:
            raise ValueError(f"community low part out of range: {low}")
        return tuple.__new__(cls, (high, low))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"

    def sort_key(self) -> tuple[int, int]:
        return (self[0], self[1])


class _RouteFields(NamedTuple):
    prefix: Prefix
    as_path: tuple[int, ...]
    local_pref: int
    med: int | None
    communities: frozenset[Community]
    learned_on: str  # link id, or "local"
    origin_as: int


class Route(_RouteFields):
    """One route, as the tuple of its seven fields.  `Route(...)` checks the
    invariants below; `tuple.__new__`, `_make` and `_replace` check none."""

    __slots__ = ()

    def __new__(
        cls,
        prefix: Prefix,
        as_path: tuple[int, ...],
        local_pref: int,
        med: int | None,
        communities: frozenset[Community],
        learned_on: str,
        origin_as: int,
    ) -> "Route":
        if learned_on != LOCAL:
            if not as_path:
                raise ValueError("received route with empty AS-path")
            if as_path[-1] != origin_as:
                raise ValueError("AS-path must end at the origin AS")
        if local_pref < 0:
            raise ValueError("local_pref must be >= 0")
        if med is not None and med < 0:
            raise ValueError("MED must be >= 0")
        if len(communities) > COMMUNITY_BUDGET:
            raise ValueError(f"more than {COMMUNITY_BUDGET} communities on one route")
        return tuple.__new__(cls, (prefix, as_path, local_pref, med, communities, learned_on, origin_as))

    @property
    def path_len(self) -> int:
        return len(self.as_path)

    @property
    def first_hop(self) -> int:
        return self.as_path[0] if self.as_path else 0

    def path_str(self) -> str:
        # One %-format for the whole path: the dump formats every distinct
        # path, and this costs half of a str() per ASN.
        path = self.as_path
        return ("%d," * len(path))[:-1] % path if path else "-"


def local_route(prefix: Prefix, origin: int) -> Route:
    return tuple.__new__(Route, (prefix, (), LP_LOCAL, None, EMPTY, LOCAL, origin))


def compare_routes(r1: Route, r2: Route) -> int:
    """Rank two candidates for the same prefix.

    Returns -1 when r1 is better, 1 when r2 is better, 0 only for candidates
    equal on every criterion.  Order:
      1. higher local_pref
      2. shorter AS-path
      3. lower MED, compared only when both routes come from the same
         neighboring AS (absent MED counts as 0)
      4. lower first-hop ASN
      5. lexicographically smaller learned_on link id
    """
    prefix1, path1, lp1, med1, _, on1, _ = r1
    prefix2, path2, lp2, med2, _, on2, _ = r2
    if prefix1 != prefix2:
        raise ValueError("compare_routes: prefix mismatch")
    if lp1 != lp2:
        return -1 if lp1 > lp2 else 1
    len1, len2 = len(path1), len(path2)
    if len1 != len2:
        return -1 if len1 < len2 else 1
    # MED counts only between routes from the same neighbor, so a first-hop
    # difference (step 4) decides before MED (step 3) is read.  The lengths
    # are equal: both paths are empty (first hop 0 each) or neither is.
    if len1 and path1[0] != path2[0]:
        return -1 if path1[0] < path2[0] else 1
    m1 = med1 if med1 is not None else 0
    m2 = med2 if med2 is not None else 0
    if m1 != m2:
        return -1 if m1 < m2 else 1
    if on1 != on2:
        return -1 if on1 < on2 else 1
    return 0


def best_of(candidates: list[Route]) -> Route | None:
    best = None
    for r in candidates:
        if best is None or compare_routes(r, best) < 0:
            best = r
    return best


def prepend_path(r: Route, who: int, n: int) -> Route:
    """Insert `who` n times at the front of the AS-path (n=0 is identity)."""
    if n < 0:
        raise ValueError("prepend count must be >= 0")
    if n == 0:
        return r
    return r._replace(as_path=(who,) * n + r.as_path)
