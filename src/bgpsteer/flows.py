"""The 4-tuple flow abstraction and ingress attribution.

A flow {src_prefix, src_asn, dst_prefix, dst_asn} names a unit of traffic;
wildcards on the source side define the granularity class.  The ingress map
assigns every (source AS, destination prefix) pair to the inter-domain link
through which its traffic enters the destination AS.  Forwarding is
destination-based: source prefixes never influence resolution.

Traffic for a prefix leaves an AS on the link of the route that AS selects
for the prefix by longest-prefix match, and every hop matches the same
queried prefix.  So an AS's next hop depends only on the AS and the prefix,
and the walk from an AS is its first link followed by its next hop's walk:
the last link, through which the traffic enters its owner, is the next
hop's last link, or the AS's own link when the next hop holds the route
locally.  A `ForwardingTable` holds these answers for one state and one
prefix, resolving each AS at most once; `ingress_map` reads one table per
originated prefix, so it costs one lookup per AS and prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .engine import ConvergedState
from .topology import LOCAL, Prefix, Topology

UNREACHABLE = "unreachable"


class FlowClass(Enum):
    DESTINATION_PREFIX = "destination-prefix"
    SOURCE_ASN = "source-asn"
    SOURCE_PREFIX = "source-prefix"


@dataclass(frozen=True, slots=True)
class Flow:
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


def classify(f: Flow) -> FlowClass:
    if f.src_prefix is not None:
        return FlowClass.SOURCE_PREFIX
    if f.src_asn is not None:
        return FlowClass.SOURCE_ASN
    return FlowClass.DESTINATION_PREFIX


def resolve_forwarding(
    s: ConvergedState, t: Topology, src: int, dst_prefix: Prefix
) -> list[str] | None:
    """Hop-by-hop walk by longest-prefix match from `src` toward the AS that
    locally owns the best-matching prefix.  Returns the traversed link ids
    (empty when src is the owner), or None when some hop has no route."""
    if src not in t.roles:
        raise KeyError(f"unknown AS: {src}")
    if t.origin_of(dst_prefix) is None:
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
    """Where each AS's traffic for one prefix ends up, in one converged state.

    `last_link(asn)` is the last link of the hop-by-hop walk that
    `resolve_forwarding` would take from `asn`: LOCAL when `asn` holds the
    route locally (an empty walk), None when some hop has no route or the walk
    revisits an AS.  Answers are resolved on demand and memoised along the
    forwarding tree, so each AS is looked up at most once per table.  A hop
    reads the Loc-RIB entry for the prefix itself and falls back to
    `ConvergedState.best_route`'s longest-prefix match only when there is
    none."""

    def __init__(self, s: ConvergedState, t: Topology, prefix: Prefix) -> None:
        self._s, self._t, self._prefix = s, t, prefix
        self._loc_rib, self._links = s.loc_rib, t.links_by_id
        self._known: dict[int, str | None] = {}

    def last_link(self, asn: int) -> str | None:
        known = self._known
        if asn in known:
            return known[asn]
        loc_rib, links, prefix = self._loc_rib, self._links, self._prefix
        # Walk to an AS whose answer is known.  Until the walk ends, each AS
        # passed holds its next hop (an int, never an answer) in `known`, so a
        # walk that meets itself finds one.
        current, last = asn, None
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
            current, last = nxt, link_id
        answer = known[current]
        if type(answer) is int:  # a loop: cannot happen at a fixed point; guard anyway
            answer = None
        elif answer == LOCAL and last is not None:
            answer = last  # the walk enters the holder of the route over its last link
        hop = asn
        while type(nxt := known[hop]) is int:
            known[hop], hop = answer, nxt
        return answer


def entry_link(t: Topology, dest: int, last: str | None) -> str | None:
    """The link through which a walk whose last link is `last` enters `dest`:
    `last` itself when it is a link incident to `dest`, else None."""
    if last is None or last == LOCAL:
        return None
    return last if dest in t.link_by_id(last).endpoints() else None


@dataclass(frozen=True)
class IngressMap:
    """dest plus (src ASN, destination prefix) -> entry link id or
    "unreachable".  Keys cover every non-destination AS and every prefix the
    destination originates."""

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
    if set(base) != set(new):
        raise ValueError("ingress maps cover different key sets")
    keys = sorted(base)
    return [(*key, base[key], new[key]) for key in keys if base[key] != new[key]]


def ingress_map(s: ConvergedState, t: Topology, dest: int) -> IngressMap:
    prefixes = sorted(t.originated_by(dest))
    if not prefixes:
        raise ValueError(f"AS {dest} originates nothing")
    last_links = [(prefix, ForwardingTable(s, t, prefix).last_link) for prefix in prefixes]
    # Few distinct last links occur, so entry_link runs once per distinct one.
    entry_of: dict[str | None, str] = {}
    entries: dict[tuple[int, Prefix], str] = {}
    for src in t.ases():
        if src == dest:
            continue
        for prefix, last_link in last_links:
            last = last_link(src)
            entry = entry_of.get(last)
            if entry is None:
                entry = entry_of[last] = entry_link(t, dest, last) or UNREACHABLE
            entries[src, prefix] = entry
    return IngressMap(dest, entries)


def diff_ingress(
    base: IngressMap, new: IngressMap
) -> list[tuple[int, Prefix, str, str]]:
    """Entries whose link changed, sorted by (src, prefix)."""
    if base.dest != new.dest:
        raise ValueError("ingress maps are for different destinations")
    return moved_entries(base.entries, new.entries)
