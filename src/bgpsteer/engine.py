"""Synchronous route propagation to a converged fixed point.

In round N an AS rebuilds its Adj-RIB-In from what its up-link neighbors
announce out of their round N-1 Loc-RIBs, subject to valley-free export,
loop prevention and the receiving provider's ingress policies, then selects
its Loc-RIB.  Announcements fully replace what a neighbor previously sent
over a link, so withdrawals are just absence.

Rounds are change-driven: round 1 recomputes every AS; round N recomputes
only the ASes with an up-link neighbor whose Loc-RIB changed in round N-1,
and every other AS keeps its RIBs.  Since round N reads only round N-1
state, a skipped AS would have rebuilt exactly what it holds, so each round
still yields the full synchronous snapshot: the round count, the per-round
trace and the pairs an OscillationError reports are those of recomputing
every AS every round.  Runs are deterministic.

The decision process never compares routes of different prefixes, so each
prefix converges on its own.  A run restricted to a set of prefixes (the
`prefixes` argument) yields exactly the full run's RIB entries for those
prefixes, and the full run takes as many rounds as the slowest prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Mapping

from .policies import AnnotatedRoute, egress_apply, egress_times, ingress_transform, plain
from .routes import (
    COMMUNITY_BUDGET,
    Community,
    Route,
    compare_routes,
    default_local_pref,
    export_permitted,
    local_route,
)
from .topology import LOCAL, Prefix, Rel, Topology, require_valid

# Prepend counts are capped at 3, so converged paths stretch at most that far
# beyond the plain diameter bound.
MAX_PREPEND = 3


class OscillationError(RuntimeError):
    """Propagation failed to reach a fixed point within the round bound."""

    def __init__(self, changing: tuple[tuple[int, Prefix], ...], rounds: int):
        pairs = ", ".join(f"(AS {a}, {p})" for a, p in changing)
        super().__init__(f"no fixed point after {rounds} rounds; still changing: {pairs}")
        self.changing = changing
        self.rounds = rounds


@dataclass(frozen=True, slots=True)
class Advertisement:
    """One announcement by an origin on one of its links."""

    origin: int
    prefix: Prefix
    link_id: str
    communities: frozenset[Community] = frozenset()
    med: int | None = None


@dataclass(frozen=True)
class TeConfig:
    """Traffic-engineering inputs: explicit per-link advertisements plus the
    per-AS LP-override table (an AS's own policy for routes from a neighbor).

    An originated prefix with no explicit advertisement is announced plainly
    on every up link of its origin; one explicit line switches that prefix to
    exactly the listed links (selective advertisement)."""

    advertisements: tuple[Advertisement, ...] = ()
    lp_overrides: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def validate(self, t: Topology) -> None:
        seen: set[tuple[int, Prefix, str]] = set()
        for ad in self.advertisements:
            key = (ad.origin, ad.prefix, ad.link_id)
            if key in seen:
                raise ValueError(f"duplicate advertisement of {ad.prefix} on {ad.link_id}")
            seen.add(key)
            if ad.origin not in t.roles:
                raise ValueError(f"advertisement by undeclared AS {ad.origin}")
            try:
                link = t.link_by_id(ad.link_id)
            except KeyError as exc:
                raise ValueError(str(exc)) from exc
            if ad.origin not in link.endpoints():
                raise ValueError(f"AS {ad.origin} is not on link {ad.link_id}")
            if not any(p.contains(ad.prefix) for p in t.originated_by(ad.origin)):
                raise ValueError(
                    f"AS {ad.origin} advertises {ad.prefix} outside its originated space"
                )
            if len(ad.communities) > COMMUNITY_BUDGET:
                raise ValueError(f"advertisement of {ad.prefix} exceeds the community budget")
            if ad.med is not None and ad.med < 0:
                raise ValueError("MED must be >= 0")
        for (asn, neighbor), lp in self.lp_overrides.items():
            if asn not in t.roles or neighbor not in t.roles:
                raise ValueError(f"LP override references undeclared AS ({asn}, {neighbor})")
            if lp < 0:
                raise ValueError("LP override must be >= 0")


def _announcement_table(
    t: Topology, te: TeConfig
) -> dict[int, dict[tuple[Prefix, str], Advertisement]]:
    """origin -> (prefix, link) -> advertisement, after filling defaults."""
    explicit: dict[int, set[Prefix]] = {}
    for ad in te.advertisements:
        explicit.setdefault(ad.origin, set()).add(ad.prefix)
    table: dict[int, dict[tuple[Prefix, str], Advertisement]] = {}
    for asn in t.originations:
        table[asn] = {}
        for p in t.originated_by(asn):
            if p in explicit.get(asn, set()):
                continue
            for link in t.up_links_of(asn):
                table[asn][(p, link.id)] = Advertisement(asn, p, link.id)
    for ad in te.advertisements:
        table.setdefault(ad.origin, {})[(ad.prefix, ad.link_id)] = ad
    return table


@dataclass(frozen=True)
class ConvergedState:
    """Fixed-point RIBs: per AS, per prefix, all received candidates (by
    incoming link) and the selected best entry."""

    adj_rib_in: Mapping[int, Mapping[Prefix, Mapping[str, AnnotatedRoute]]]
    loc_rib: Mapping[int, Mapping[Prefix, AnnotatedRoute]]
    rounds_used: int

    def candidates(self, asn: int, prefix: Prefix) -> list[Route]:
        return [ar.route for ar in self.adj_rib_in.get(asn, {}).get(prefix, {}).values()]

    def selected(self, asn: int, prefix: Prefix) -> Route | None:
        entry = self.loc_rib.get(asn, {}).get(prefix)
        return entry.route if entry else None

    def best_route(self, asn: int, prefix: Prefix) -> Route | None:
        """Longest-prefix-match lookup: the loc_rib entry whose key is the
        longest installed prefix covering `prefix` (the exact entry when
        installed exactly)."""
        rib = self.loc_rib.get(asn)
        if rib is None:
            raise KeyError(f"unknown AS: {asn}")
        exact = rib.get(prefix)
        if exact is not None:  # no installed key covering `prefix` is longer
            return exact.route
        best_key: Prefix | None = None
        for key in rib:
            if key.contains(prefix) and (best_key is None or key.length > best_key.length):
                best_key = key
        return rib[best_key].route if best_key is not None else None

    def dump(self) -> str:
        """Canonical text form, sorted, for golden-file comparison."""
        lines = [f"rounds {self.rounds_used}"]
        for asn in sorted(self.loc_rib):
            lines.append(f"as {asn}")
            prefixes = set(self.loc_rib[asn]) | set(self.adj_rib_in.get(asn, {}))
            for p in sorted(prefixes, key=Prefix.sort_key):
                lines.append(f" rib {p}")
                entry = self.loc_rib[asn].get(p)
                if entry is not None:
                    lines.append(f"  best {_route_line(entry.route)}")
                for link_id in sorted(self.adj_rib_in.get(asn, {}).get(p, {})):
                    cand = self.adj_rib_in[asn][p][link_id]
                    lines.append(f"  cand {_route_line(cand.route)}")
        return "\n".join(lines) + "\n"


def _route_line(r: Route) -> str:
    med = str(r.med) if r.med is not None else "-"
    comms = ",".join(str(c) for c in sorted(r.communities, key=Community.sort_key)) or "-"
    return f"path={r.path_str()} lp={r.local_pref} med={med} from={r.learned_on} comms={comms}"


def best_route(s: ConvergedState, asn: int, prefix: Prefix) -> Route | None:
    return s.best_route(asn, prefix)


def propagate_to_convergence(
    t: Topology,
    te: TeConfig | None = None,
    *,
    prefixes: Collection[Prefix] | None = None,
    max_rounds: int | None = None,
    trace: Callable[[int, str], None] | None = None,
    validate: bool = True,
) -> ConvergedState:
    """Run synchronous rounds to a fixed point.  With `prefixes`, only those
    prefixes' local routes and announcements enter the run; the round bound
    still counts every AS."""
    te = te or TeConfig()
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if validate:
        require_valid(t)
        te.validate(t)

    ann = _announcement_table(t, te)
    wanted = None if prefixes is None else frozenset(prefixes)
    if wanted is not None:
        ann = {
            origin: {key: ad for key, ad in table.items() if key[0] in wanted}
            for origin, table in ann.items()
        }
    index = t.index
    adjacency, rel_at = index.adjacency, index.rel_at

    # Local routes exist for every prefix the AS originates or explicitly
    # advertises (more-specifics), even when announced nowhere.
    local_entries: dict[int, dict[Prefix, AnnotatedRoute]] = {asn: {} for asn in t.roles}
    for asn, originated in t.originations.items():
        for p in originated:
            if wanted is None or p in wanted:
                local_entries[asn][p] = plain(local_route(p, asn))
    for origin, table in ann.items():
        for (p, _link_id) in table:
            local_entries[origin].setdefault(p, plain(local_route(p, origin)))

    adj: dict[int, dict[Prefix, dict[str, AnnotatedRoute]]] = {asn: {} for asn in t.roles}
    loc: dict[int, dict[Prefix, AnnotatedRoute]] = {
        asn: dict(entries) for asn, entries in local_entries.items()
    }

    bound = max_rounds if max_rounds is not None else 2 * len(t.roles) + MAX_PREPEND + 4
    prev_adj, prev_loc = adj, loc
    dirty: set[int] = set(t.roles)

    for round_no in range(1, bound + 1):
        inbox: dict[int, dict[Prefix, dict[str, tuple[Route, int]]]] = {
            asn: {} for asn in t.roles if asn in dirty
        }
        for exporter in t.roles:
            targets = [n for n in adjacency.get(exporter, ()) if n[1] in inbox]
            entries = loc[exporter]
            if not targets or not entries:
                continue
            catalog = t.catalogs.get(exporter)
            exporter_ann = ann.get(exporter, {})
            for prefix, entry in entries.items():
                route = entry.route
                if route.learned_on == LOCAL:
                    for link_id, neighbor, _rel_neighbor in targets:
                        ad = exporter_ann.get((prefix, link_id))
                        if ad is None:
                            continue
                        wire = Route(
                            prefix, (exporter,) + route.as_path, 0,
                            ad.med, ad.communities, LOCAL, route.origin_as,
                        )
                        inbox[neighbor].setdefault(prefix, {})[link_id] = (wire, exporter)
                else:
                    learned_rel = rel_at[(route.learned_on, exporter)]
                    # egress_apply output varies only with egress_times, so
                    # one wire per value serves all neighbors
                    wire_cache: dict[int, Route] = {}
                    for link_id, neighbor, rel_neighbor in targets:
                        if not export_permitted(learned_rel, rel_neighbor):
                            continue
                        times = egress_times(entry, neighbor)
                        if times is None:
                            continue
                        wire = wire_cache.get(times)
                        if wire is None:
                            wire = wire_cache[times] = egress_apply(entry, exporter, neighbor, catalog)
                        inbox[neighbor].setdefault(prefix, {})[link_id] = (wire, exporter)

        new_adj, new_loc = dict(adj), dict(loc)
        adj_changed = False
        loc_changed: list[int] = []
        for receiver, by_prefix in inbox.items():
            catalog = t.catalogs.get(receiver)
            rels = index.neighbor_rels.get(receiver, {})
            rib_in: dict[Prefix, dict[str, AnnotatedRoute]] = {}
            for prefix, by_link in by_prefix.items():
                for link_id, (wire, sender) in by_link.items():
                    if receiver in wire.as_path:
                        continue
                    sender_rel = rel_at[(link_id, receiver)]
                    catalog_applies = catalog is not None and sender_rel is Rel.CUSTOMER
                    if catalog_applies and catalog.drops_community_updates and wire.communities:
                        continue
                    installed = Route(
                        wire.prefix, wire.as_path, _ingress_lp(te, receiver, sender, sender_rel),
                        wire.med, wire.communities, link_id, wire.origin_as,
                    )
                    if catalog_applies:
                        annotated = ingress_transform(catalog, installed, rels)
                        if annotated.lp_override is not None:
                            annotated = replace(
                                annotated, route=replace(installed, local_pref=annotated.lp_override)
                            )
                    else:
                        annotated = plain(installed)
                    rib_in.setdefault(prefix, {})[link_id] = annotated

            local = local_entries[receiver]
            table: dict[Prefix, AnnotatedRoute] = {}
            for prefix in set(local) | set(rib_in):
                best: AnnotatedRoute | None = None
                for cand in rib_in.get(prefix, {}).values():
                    if best is None or compare_routes(cand.route, best.route) < 0:
                        best = cand
                own = local.get(prefix)
                if own is not None and (best is None or compare_routes(own.route, best.route) < 0):
                    best = own
                if best is not None:
                    table[prefix] = best
            if rib_in != adj[receiver]:
                new_adj[receiver] = rib_in
                adj_changed = True
            if table != loc[receiver]:
                new_loc[receiver] = table
                loc_changed.append(receiver)

        if trace is not None:
            trace(round_no, ConvergedState(new_adj, new_loc, round_no).dump())

        if not adj_changed and not loc_changed:
            return ConvergedState(new_adj, new_loc, round_no)
        prev_adj, prev_loc = adj, loc
        adj, loc = new_adj, new_loc
        # Round N + 1 reads only round N's Loc-RIBs, so an AS none of whose
        # neighbors changed its Loc-RIB would rebuild exactly the RIBs it has.
        dirty = {neighbor for asn in loc_changed for _, neighbor, _ in adjacency.get(asn, ())}

    changing = _diff_pairs(prev_adj, prev_loc, adj, loc)
    raise OscillationError(changing, bound)


def _ingress_lp(te: TeConfig, receiver: int, sender: int, sender_rel: Rel) -> int:
    """LP at ingress before catalog rules: the AS's own LP-override table,
    else the relationship default.  A catalog LP community on a customer
    route (AnnotatedRoute.lp_override, from ingress_transform) beats both."""
    table = te.lp_overrides.get((receiver, sender))
    if table is not None:
        return table
    return default_local_pref(sender_rel)


def _diff_pairs(adj1, loc1, adj2, loc2) -> tuple[tuple[int, Prefix], ...]:
    pairs: set[tuple[int, Prefix]] = set()
    for asn in set(loc1) | set(loc2):
        for prefix in set(loc1.get(asn, {})) | set(loc2.get(asn, {})):
            if loc1.get(asn, {}).get(prefix) != loc2.get(asn, {}).get(prefix):
                pairs.add((asn, prefix))
    for asn in set(adj1) | set(adj2):
        for prefix in set(adj1.get(asn, {})) | set(adj2.get(asn, {})):
            if adj1.get(asn, {}).get(prefix) != adj2.get(asn, {}).get(prefix):
                pairs.add((asn, prefix))
    return tuple(sorted(pairs, key=lambda ap: (ap[0], ap[1].sort_key())))
