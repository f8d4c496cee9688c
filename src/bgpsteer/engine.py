"""Synchronous route propagation to a converged fixed point.

In round N each AS exports out of its round N-1 Loc-RIB to its up-link
neighbors, subject to valley-free export and the exporter's egress
policies; the receiver installs what arrives after loop prevention and its
own ingress policies, then selects its Loc-RIB.  A new announcement over a
link replaces what the neighbor sent there before, so a withdrawal is just
an announcement of nothing.

What an origin announces for a local route is decided where it is
exported (`_export`): a prefix the TE config does not list goes out plainly
on every up link; a listed one only on its listed links, each with that
advertisement's MED and communities; a withheld one nowhere.  A run keeps
only the listed announcements, keyed by (origin, prefix).

The unit of change is an (AS, prefix) pair.  Round 1 exports every local
entry; round N exports only the pairs whose Loc-RIB entry changed or
vanished in round N-1, each to every up-link neighbor it may go to (and
takes back what it sent where it no longer may).  The receiver patches its
Adj-RIB-In for that (prefix, link) and re-runs the decision for that prefix
only; RIBs persist across rounds.
All of a round's updates come from the previous round's Loc-RIBs, so every
round still yields the full synchronous snapshot: the round count, the
per-round trace and the pairs an OscillationError reports (those whose
Adj-RIB-In changed in the last round) are those of recomputing every AS
every round.  compare_routes is a total order over one prefix's
candidates, so the order updates arrive in never changes a result.  Runs
are deterministic.

What never changes between runs is compiled once per topology
(`Topology.sessions`, one entry per AS): per exporter, each up link's
neighbor, the LP that neighbor assigns by default, its catalog where the
exporter is its customer, the exporter's own catalog, neighbor table and
the links its customers reach it over, and the valley-free split of the
links per learned link and for its own routes (LOCAL), the one statement of
valley-free export a run reads.  A run resolves its LP-override table into
a copy of that table once, and the round loop walks the session tuples
with no per-message lookups.

Every Adj-RIB-In and Loc-RIB entry is a `Route`, and each catalog
action is evaluated where it acts.  Each rule keeps one code path: the loop
check, `drops_community_updates` and the LP installed (override table, else
the relationship default) in `_deliver`, a catalog LP community in
`ingress_transform`, the prepends and suppression of a route learned from a
customer in `egress_times` at its owner's export, and the stripping of the
owner's communities in `egress_apply`.

The decision process never compares routes of different prefixes, so each
prefix converges on its own.  A run restricted to a set of prefixes (the
`prefixes` argument) yields exactly the full run's RIB entries for those
prefixes, and the full run takes as many rounds as the slowest prefix.

A run pauses the cyclic garbage collector from its first round until it
returns or raises, then restores the caller's setting; a `trace` callback
runs under the caller's setting.  `Route` and `Prefix` are tuple
subclasses, which the collector tracks, so every full collection the run's
allocations trigger would walk every live RIB: the run's own and those of
any state the caller still holds.  The pause holds back no garbage: RIB
values are tuples, frozensets and dicts of ints and strings, and a run
makes no reference cycles, so reference counting frees all it drops.  The
setting is process-wide: with runs in several threads at once, a run can
find the collector paused by another and leave it off.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from .policies import PREPEND_MAX as MAX_PREPEND
from .policies import egress_apply, egress_times, ingress_transform
from .routes import (
    COMMUNITY_BUDGET,
    Community,
    Route,
    compare_routes,
    local_route,
)
from .topology import LOCAL, Prefix, Session, Sessions, Topology, require_valid


class OscillationError(RuntimeError):
    """Propagation failed to reach a fixed point within the round bound."""

    def __init__(self, changing: tuple[tuple[int, Prefix], ...], rounds: int):
        pairs = ", ".join(f"(AS {a}, {p})" for a, p in changing)
        super().__init__(f"no fixed point after {rounds} rounds; still changing: {pairs}")
        self.changing = changing
        self.rounds = rounds


class Advertisement(NamedTuple):
    """One announcement by an origin on one of its links.  A tuple: it equals
    and hashes like the tuple of its fields, and a changed copy is
    `ad._replace(field=value)`, not `dataclasses.replace`."""

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
    exactly the listed links (selective advertisement).  A `withheld`
    (origin, prefix) pair switches the prefix to its explicit links too, so
    with none it is announced nowhere.  The scenario format has no record for
    it; the planner sets it when an action set withholds a prefix on every
    link.  Nothing fills in the default announcements: the engine applies
    this rule as it exports each local route."""

    advertisements: tuple[Advertisement, ...] = ()
    lp_overrides: Mapping[tuple[int, int], int] = field(default_factory=dict)
    withheld: frozenset[tuple[int, Prefix]] = frozenset()

    def validate(self, t: Topology) -> dict[tuple[int, Prefix], dict[str, Advertisement]]:
        """ValueError when the config breaks a rule over `t`; else the
        announcements it lists, by (origin, prefix) and then link id, with an
        empty entry for each withheld pair."""
        seen: set[tuple[int, Prefix, str]] = set()
        listed: dict[tuple[int, Prefix], dict[str, Advertisement]] = {pair: {} for pair in self.withheld}
        for ad in self.advertisements:
            check_advertisement(t, ad, seen)
            listed.setdefault((ad.origin, ad.prefix), {})[ad.link_id] = ad
        for origin, prefix in self.withheld:
            if prefix not in t.originated_by(origin):
                raise ValueError(f"AS {origin} withholds {prefix}, which it does not originate")
        for (asn, neighbor), lp in self.lp_overrides.items():
            if asn not in t.roles or neighbor not in t.roles:
                raise ValueError(f"LP override references undeclared AS ({asn}, {neighbor})")
            if lp < 0:
                raise ValueError("LP override must be >= 0")
        return listed


def check_advertisement(t: Topology, ad: Advertisement, seen: set[tuple[int, Prefix, str]]) -> None:
    """ValueError when `ad` breaks a rule of `TeConfig.validate`, or repeats
    an (origin, prefix, link) key in `seen`, which it then joins."""
    origin, prefix, link_id, communities, med = ad
    key = (origin, prefix, link_id)
    if key in seen:
        raise ValueError(f"duplicate advertisement of {prefix} on {link_id}")
    seen.add(key)
    if origin not in t.roles:
        raise ValueError(f"advertisement by undeclared AS {origin}")
    link = t.links_by_id.get(link_id)
    if link is None:
        raise ValueError(f"unknown link id: {link_id}")
    if origin != link.a and origin != link.b:
        raise ValueError(f"AS {origin} is not on link {link_id}")
    originated = t.originations.get(origin, ())
    if prefix not in originated and not any(p.contains(prefix) for p in originated):
        raise ValueError(f"AS {origin} advertises {prefix} outside its originated space")
    if len(communities) > COMMUNITY_BUDGET:
        raise ValueError(f"more than {COMMUNITY_BUDGET} communities on one advertisement of {prefix}")
    if med is not None and med < 0:
        raise ValueError("MED must be >= 0")


@dataclass(frozen=True)
class ConvergedState:
    """Fixed-point RIBs: per AS, per prefix, all received candidates (by
    incoming link) and the selected best route."""

    adj_rib_in: Mapping[int, Mapping[Prefix, Mapping[str, Route]]]
    loc_rib: Mapping[int, Mapping[Prefix, Route]]
    rounds_used: int

    def candidates(self, asn: int, prefix: Prefix) -> list[Route]:
        return list(self.adj_rib_in.get(asn, {}).get(prefix, {}).values())

    def selected(self, asn: int, prefix: Prefix) -> Route | None:
        return self.loc_rib.get(asn, {}).get(prefix)

    def best_route(self, asn: int, prefix: Prefix) -> Route | None:
        """Longest-prefix-match lookup: the loc_rib entry whose key is the
        longest installed prefix covering `prefix` (the exact entry when
        installed exactly)."""
        rib = self.loc_rib.get(asn)
        if rib is None:
            raise KeyError(f"unknown AS: {asn}")
        exact = rib.get(prefix)
        if exact is not None:  # no installed key covering `prefix` is longer
            return exact
        best_key: Prefix | None = None
        for key in rib:
            if key.contains(prefix) and (best_key is None or key.length > best_key.length):
                best_key = key
        return rib[best_key] if best_key is not None else None

    def dump(self) -> str:
        """Canonical text form, sorted, for golden-file comparison."""
        # A route line is "  KIND" plus its body, " path=PATH" and a tail of
        # its other fields.  Every receiver of one wire route shares its
        # AS-path tuple, and few (LP, MED, communities, link) combinations
        # recur across many routes, so each distinct path, tail and prefix
        # header is formatted once.  A best route learned from a neighbor is
        # the very object of its candidate, whose line reuses its body.
        paths: dict[tuple[int, ...], str] = {}
        tails: dict[tuple, str] = {}
        heads: dict[Prefix, str] = {}

        def body(r: Route) -> str:
            _, as_path, local_pref, med, communities, learned_on, _ = r
            path = paths.get(as_path)
            if path is None:
                path = paths[as_path] = " path=" + r.path_str()
            key = (local_pref, med, communities, learned_on)
            tail = tails.get(key)
            if tail is None:
                comms = "-"
                if communities:
                    comms = ",".join(str(c) for c in sorted(communities))
                tail = tails[key] = (
                    f" lp={local_pref} med={'-' if med is None else med} from={learned_on} comms={comms}"
                )
            return path + tail

        lines = [f"rounds {self.rounds_used}"]
        for asn in sorted(self.loc_rib):
            lines.append(f"as {asn}")
            loc = self.loc_rib[asn]
            adj = self.adj_rib_in.get(asn, {})
            for p in sorted(loc.keys() | adj.keys()):
                head = heads.get(p)
                if head is None:
                    head = heads[p] = f" rib {p}"
                lines.append(head)
                best = loc.get(p)
                best_body = None
                if best is not None:
                    best_body = body(best)
                    lines.append("  best" + best_body)
                by_link = adj.get(p)
                if by_link:
                    for link_id in sorted(by_link):
                        r = by_link[link_id]
                        lines.append("  cand" + (best_body if r is best else body(r)))
        lines.append("")
        return "\n".join(lines)


def propagate_to_convergence(
    t: Topology,
    te: TeConfig | None = None,
    *,
    prefixes: Collection[Prefix] | None = None,
    max_rounds: int | None = None,
    trace: Callable[[ConvergedState], None] | None = None,
) -> ConvergedState:
    """Run synchronous rounds to a fixed point.  With `prefixes`, only those
    prefixes' local routes and announcements enter the run; the round bound
    still counts every AS.  Every run rejects an invalid topology or TE
    config; a topology is checked only once (`Topology.validation`).

    `trace` is called after each round with that round's state
    (`rounds_used` is the round number).  Its RIBs are the run's own, which
    later rounds change: the state is valid only during the call.

    The rounds run with the cyclic GC paused (see the module docstring);
    the caller's setting is back in force during `trace` and on every exit."""
    te = te or TeConfig()
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    require_valid(t)
    # The announcements of each (origin, prefix) the TE config lists, by
    # link; a withheld prefix lists none.  Any other local route goes out
    # plainly on every up link (`_export`).
    listed = te.validate(t)

    # Local routes, by (AS, prefix), exist for every prefix the AS originates
    # or explicitly advertises (more-specifics), even when announced nowhere.
    wanted = None if prefixes is None else frozenset(prefixes)
    local: dict[tuple[int, Prefix], Route] = {}
    for asn, originated in t.originations.items():
        for p in originated if wanted is None else originated & wanted:
            local[asn, p] = local_route(p, asn)
    for origin, p in listed:
        if (origin, p) not in local and (wanted is None or p in wanted):
            local[origin, p] = local_route(p, origin)

    adj: dict[int, dict[Prefix, dict[str, Route]]] = {}
    loc: dict[int, dict[Prefix, Route]] = {}
    for asn in t.roles:
        adj[asn] = {}
        loc[asn] = {}
    for (asn, p), route in local.items():
        loc[asn][p] = route
    sessions = t.sessions
    if te.lp_overrides:
        sessions = _with_lp_overrides(sessions, te.lp_overrides)

    # Prepend counts are capped, so converged paths stretch at most that far
    # beyond the diameter bound.
    bound = max_rounds if max_rounds is not None else 2 * len(t.roles) + MAX_PREPEND + 4
    # (AS, prefix, entry before) for each Loc-RIB entry that changed or
    # vanished last round; round 1 exports every local entry.
    changed = [(asn, p, None) for asn, p in local]

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_no in range(1, bound + 1):
            # Export: round N's updates all come from round N-1's Loc-RIBs; they
            # patch only Adj-RIB-Ins, which no export reads.
            touched: set[tuple[int, Prefix]] = set()
            for exporter, prefix, before in changed:
                route = loc[exporter].get(prefix)
                _export(adj, touched, listed, exporter, sessions[exporter], prefix, route, before)

            # Decision: only for the prefixes whose Adj-RIB-In changed.
            changed = []
            for pair in touched:
                receiver, prefix = pair
                best = local.get(pair)
                by_link = adj[receiver].get(prefix)
                if by_link:
                    for cand in by_link.values():
                        if best is None or compare_routes(cand, best) < 0:
                            best = cand
                rib = loc[receiver]
                before = rib.get(prefix)
                if best != before:
                    if best is None:
                        del rib[prefix]
                    else:
                        rib[prefix] = best
                    changed.append((receiver, prefix, before))

            if trace is not None:
                # The callback runs under the caller's GC setting.
                if gc_was_enabled:
                    gc.enable()
                trace(ConvergedState(adj, loc, round_no))
                gc.disable()
            if not touched:
                return ConvergedState(adj, loc, round_no)

        # A Loc-RIB entry changes only where its Adj-RIB-In did, so the pairs
        # still changing are those whose Adj-RIB-In changed in the last round.
        raise OscillationError(tuple(sorted(touched)), bound)
    finally:
        if gc_was_enabled:
            gc.enable()


def _with_lp_overrides(
    sessions: Mapping[int, Sessions], overrides: Mapping[tuple[int, int], int]
) -> dict[int, Sessions]:
    """`sessions` with the LP-override table resolved: an override for
    (receiver, sender) replaces the receiver's default LP on every link from
    the sender."""
    resolved = dict(sessions)
    for sender in {sender for _receiver, sender in overrides}:
        own = sessions[sender]
        resolved[sender] = Sessions.build(
            (s._replace(local_pref=overrides.get((s.neighbor, sender), s.local_pref)) for s in own.all),
            own.catalog,
        )
    return resolved


def _export(
    adj: dict[int, dict[Prefix, dict[str, Route]]],
    touched: set[tuple[int, Prefix]],
    listed: Mapping[tuple[int, Prefix], Mapping[str, Advertisement]],
    exporter: int,
    out: Sessions,
    prefix: Prefix,
    route: Route | None,
    before: Route | None,
) -> None:
    """Send what `exporter` now holds for `prefix` (its Loc-RIB route
    `route`, or None; it held `before` last round) on each up link that
    valley-free export allows (`out.by_learned`: every link for a local
    route).  A local route goes out as the TE config announces it: one plain
    wire on each link when `listed` has no entry for it, else its listed
    announcement on each listed link and nothing on the others.  A learned
    route goes out in its egress form where the catalog does not suppress
    it, else nothing.  A withdrawal goes only where `before` went out, since
    a neighbor holds a route from this exporter nowhere else."""
    reached: tuple[Session, ...] = () if before is None else out.by_learned[before.learned_on][0]
    if route is None:
        _deliver(adj, touched, reached, prefix, None)
        return
    send, withhold = out.by_learned[route.learned_on]
    if route.learned_on == LOCAL:
        ads = listed.get((exporter, prefix))
        if ads is None:
            wire = tuple.__new__(Route, (prefix, (exporter,), 0, None, frozenset(), LOCAL, exporter))
            _deliver(adj, touched, send, prefix, wire)
            return
        for s in send:
            ad = ads.get(s.link_id)
            wire = None
            if ad is not None:
                wire = tuple.__new__(Route, (prefix, (exporter,), 0, ad.med, ad.communities, LOCAL, exporter))
            _deliver(adj, touched, (s,), prefix, wire)
        return
    # Every split sends on all links or on the customer links alone, so
    # `reached` has a link outside `send` exactly when it is the longer.
    if len(reached) > len(send):
        _deliver(adj, touched, withhold, prefix, None)
    if not send:
        return
    # The exporter's catalog acts on routes its customers sent with
    # communities; every neighbor it does not single out gets the route
    # prepended once.  One wire per value serves all the neighbors that get it.
    catalog = out.catalog
    schedule = None
    if catalog is not None and route.communities and route.learned_on in out.customer_links:
        schedule = egress_times(catalog, route, out.neighbor_rels)
    if not schedule:
        _deliver(adj, touched, send, prefix, egress_apply(route, exporter, 1, catalog))
        return
    by_times: dict[int | None, list[Session]] = {}
    for s in send:
        by_times.setdefault(schedule.get(s.neighbor, 1), []).append(s)
    for times, group in by_times.items():
        wire = None if times is None else egress_apply(route, exporter, times, catalog)
        _deliver(adj, touched, group, prefix, wire)


def _deliver(
    adj: dict[int, dict[Prefix, dict[str, Route]]],
    touched: set[tuple[int, Prefix]],
    targets: Iterable[Session],
    prefix: Prefix,
    wire: Route | None,
) -> None:
    """Ingress of `wire` (None: a withdrawal) over each of the `targets`
    sessions: the receiver's Adj-RIB-In entry for (prefix, link) becomes what
    it installs, nothing when the route loops or its catalog drops the
    update; each changed (receiver, prefix) pair goes into `touched`."""
    if wire is not None:
        _, as_path, _, med, communities, _, origin_as = wire
    for link_id, receiver, _rel, local_pref, catalog in targets:
        received = None
        if (
            wire is not None
            and receiver not in as_path
            and not (catalog is not None and catalog.drops_community_updates and communities)
        ):
            received = tuple.__new__(Route, (prefix, as_path, local_pref, med, communities, link_id, origin_as))
            # A catalog LP community (ingress_transform) beats `local_pref`,
            # which already holds any LP override.
            if catalog is not None and communities:
                received = ingress_transform(catalog, received)
        rib = adj[receiver]
        by_link = rib.get(prefix)
        if received == (by_link.get(link_id) if by_link is not None else None):
            continue
        touched.add((receiver, prefix))
        if received is None:
            del by_link[link_id]
            if not by_link:
                del rib[prefix]
        elif by_link is None:
            rib[prefix] = {link_id: received}
        else:
            by_link[link_id] = received
