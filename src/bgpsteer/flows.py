"""The 4-tuple flow abstraction and ingress attribution.

A flow {src_prefix, src_asn, dst_prefix, dst_asn} names a unit of traffic;
wildcards on the source side define the granularity class.  The ingress map
assigns every (source AS, destination prefix) pair to the inter-domain link
through which its traffic enters the destination AS.  Forwarding is
destination-based: source prefixes never influence resolution.

Traffic for a prefix leaves an AS on the link of the route that AS selects
for the prefix by longest-prefix match, and every hop matches the same
queried prefix.  So an AS's next hop depends only on the AS and the prefix,
and every AS on a walk shares the walk's end: the link into the AS that
holds the route locally.  The traffic enters the destination over that link
when it is incident to the destination, and enters it over no link
otherwise.  A `ForwardingTable` states this entry rule for one state, one
prefix and one destination, resolving each AS at most once; `ingress_map`
reads one table per originated prefix, so it costs one lookup per AS and
prefix.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple

from .engine import ConvergedState
from .topology import LOCAL, Prefix, Topology

UNREACHABLE = "unreachable"


class FlowClass(Enum):
    DESTINATION_PREFIX = "destination-prefix"
    SOURCE_ASN = "source-asn"
    SOURCE_PREFIX = "source-prefix"


class Flow(NamedTuple):
    """None on the source side means wildcard; the destination side is always
    concrete (routes are announced for concrete prefixes)."""

    src_prefix: Prefix | None
    src_asn: int | None
    dst_prefix: Prefix
    dst_asn: int

    def __str__(self) -> str:
        sp = str(self.src_prefix) if self.src_prefix is not None else "*"
        sa = str(self.src_asn) if self.src_asn is not None else "*"
        return f"{{{sp}, {sa}, {self.dst_prefix}, {self.dst_asn}}}"


# An enum member read through its class costs a descriptor call each time.
_SOURCE_PREFIX, _SOURCE_ASN, _DESTINATION_PREFIX = (
    FlowClass.SOURCE_PREFIX, FlowClass.SOURCE_ASN, FlowClass.DESTINATION_PREFIX
)


def classify(f: Flow) -> FlowClass:
    if f.src_prefix is not None:
        return _SOURCE_PREFIX
    if f.src_asn is not None:
        return _SOURCE_ASN
    return _DESTINATION_PREFIX


def resolve_forwarding(
    s: ConvergedState, t: Topology, src: int, dst_prefix: Prefix
) -> list[str] | None:
    """Hop-by-hop walk by longest-prefix match from `src` toward the AS that
    locally owns the best-matching prefix.  Returns the traversed link ids
    (empty when src is the owner), or None when some hop has no route."""
    if src not in t.roles:
        raise KeyError(f"unknown AS: {src}")
    if not any(p.contains(dst_prefix) for prefixes in t.originations.values() for p in prefixes):
        raise ValueError(f"{dst_prefix} is not covered by any originated prefix")
    hops: list[str] = []
    current = src
    seen = {src}
    while True:
        route = s.best_route(current, dst_prefix)
        if route is None:
            return None
        if route.learned_on == LOCAL:
            return hops
        link = t.link_by_id(route.learned_on)
        nxt = link.other(current)
        hops.append(link.id)
        if nxt in seen:  # cannot happen at a fixed point; guard anyway
            return None
        seen.add(nxt)
        current = nxt


class ForwardingTable:
    """Where each AS's traffic for one prefix enters one destination AS, in
    one converged state.

    `entry_link(asn)` is the link through which the hop-by-hop walk that
    `resolve_forwarding` would take from `asn` enters `dest`: the walk's last
    link when it is incident to `dest`.  It is None when some hop has no
    route, the walk revisits an AS, the walk ends at another AS, or `asn`
    holds the route itself (an empty walk).  Answers are resolved on demand
    and memoised along the forwarding tree, so each AS is looked up at most
    once per table.  A hop reads the Loc-RIB entry for the prefix itself and
    falls back to `ConvergedState.best_route`'s longest-prefix match only
    when there is none."""

    __slots__ = ("_s", "_t", "_prefix", "_dest", "_loc_rib", "_links", "_known")

    def __init__(self, s: ConvergedState, t: Topology, prefix: Prefix, dest: int) -> None:
        self._s, self._t, self._prefix, self._dest = s, t, prefix, dest
        self._loc_rib, self._links = s.loc_rib, t.links_by_id
        # AS -> its entry link, or LOCAL for an AS that holds the route.
        self._known: dict[int, str | None] = {}

    def entry_link(self, asn: int) -> str | None:
        known = self._known
        if asn in known:
            answer = known[asn]
            return None if answer == LOCAL else answer
        loc_rib, links, prefix = self._loc_rib, self._links, self._prefix
        # Walk to an AS whose answer is known.  Until the walk ends, each AS
        # passed holds its next hop (an int, never an answer) in `known`, so a
        # walk that meets itself finds one.
        current, link = asn, None
        while current not in known:
            rib = loc_rib.get(current)
            route = rib.get(prefix) if rib is not None else None
            if route is None:
                # best_route matches the longest covering prefix, or names
                # an unknown AS (only `asn` can be one: every later hop is a
                # link's endpoint).
                route = self._s.best_route(current, prefix)
            if route is None:
                known[current] = None
                break
            link_id = route.learned_on
            if link_id == LOCAL:
                known[current] = LOCAL
                break
            link = links.get(link_id) or self._t.link_by_id(link_id)
            known[current] = nxt = link.other(current)
            current = nxt
        answer = known[current]
        if answer == LOCAL:
            # The walk ends over its last link, which enters dest only when
            # dest is on it; an AS that holds the route enters no link.
            dest = self._dest
            answer = link.id if link is not None and (dest == link.a or dest == link.b) else None
        elif type(answer) is int:  # a loop: cannot happen at a fixed point; guard anyway
            answer = None
        hop = asn
        while type(nxt := known[hop]) is int:
            known[hop], hop = answer, nxt
        return answer


class IngressMap(NamedTuple):
    """dest plus (src ASN, destination prefix) -> entry link id or
    "unreachable".  Keys cover every non-destination AS and every prefix the
    destination originates.  A tuple of its two fields, like `TeConfig`."""

    dest: int
    entries: Mapping[tuple[int, Prefix], str]

    def to_csv(self) -> str:
        return ingress_csv(self.entries)


def ingress_csv(entries: Mapping[tuple[int, Prefix], str]) -> str:
    """`src_asn,dst_prefix,link` rows, ordered by source AS and then by prefix
    address and length."""
    text = {prefix: str(prefix) for prefix in {prefix for _src, prefix in entries}}
    rows = [f"{src},{text[prefix]},{link}" for (src, prefix), link in sorted(entries.items())]
    return "\n".join(["src_asn,dst_prefix,link", *rows]) + "\n"


def moved_entries(
    base: Mapping[tuple[int, Prefix], str], new: Mapping[tuple[int, Prefix], str]
) -> list[tuple[int, Prefix, str, str]]:
    """(src, prefix, old link, new link) for each entry whose link changed, in
    `ingress_csv` row order."""
    if base.keys() != new.keys():
        raise ValueError("ingress maps cover different key sets")
    return sorted((*key, old, new[key]) for key, old in base.items() if old != new[key])


def ingress_map(s: ConvergedState, t: Topology, dest: int) -> IngressMap:
    prefixes = sorted(t.originated_by(dest))
    if not prefixes:
        raise ValueError(f"AS {dest} originates nothing")
    tables = [(prefix, ForwardingTable(s, t, prefix, dest).entry_link) for prefix in prefixes]
    entries: dict[tuple[int, Prefix], str] = {}
    for src in t.ases():
        if src == dest:
            continue
        for prefix, entry_link in tables:
            entries[src, prefix] = entry_link(src) or UNREACHABLE
    return IngressMap(dest, entries)


def diff_ingress(
    base: IngressMap, new: IngressMap
) -> list[tuple[int, Prefix, str, str]]:
    """Entries whose link changed, sorted by (src, prefix)."""
    if base.dest != new.dest:
        raise ValueError("ingress maps are for different destinations")
    return moved_entries(base.entries, new.entries)
