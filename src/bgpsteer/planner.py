"""Closed-loop inbound traffic-engineering planner.

Given per-(source AS, destination prefix) ingress-link objectives for a stub
AS, the planner first screens for structural infeasibility (two objectives on
one prefix whose candidate routes all funnel through a single upstream AS can
never be split by prepending), then finds the advertisement and
community-attachment action set of least intervention cost that realizes
every objective.  Every returned plan is re-checkable from scratch with
evaluate_plan.

Inbound TE acts per prefix: an action on one prefix changes no route for a
prefix that neither covers nor lies inside it.  So the planner splits the
prefixes into groups closed under containment and searches each group with
objectives on its own: it generates the group's action sets lazily in
ascending cost and judges each with one run restricted to the group's
prefixes.  Groups without objectives keep their baseline routes.  The
cheapest combination of the groups' satisfying sets that fits the action
budget is the plan that simulating every candidate in full, in ascending
cost, would find.

One judged candidate costs one expansion (`te_config_from_actions`), one
restricted run, which checks the topology and the TE config as every run
does, and one forwarding table per objective prefix of its group, whose
entry links (`ForwardingTable.entry_link`) decide each objective.  The
empty action set expands like any other, to the plain table.  What
depends only on the topology and the destination is compiled once, on the
planner's first request (`_origin`): the plain announcement table, which an
expansion copies all but the keys its actions name from, the community and
MED atoms with their prepend counts, and the stub sources of a `*`
objective.  The withhold and more-specific atoms are built per plan, and
the baseline's ingress map only for a Plan answer.  A one-prefix group
that no announcement over some objective's link can meet is answered
without a search (`plan_inbound_te`).

A baseline run that meets every objective answers the empty plan, with no
atoms built and no search.  A plan with no actions is the baseline, so
evaluate_plan re-checks it with one run, not two.  Nothing is kept from one
call to the next.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from .engine import (
    Advertisement,
    ConvergedState,
    OscillationError,
    TeConfig,
    propagate_to_convergence,
)
from .flows import (
    Flow,
    FlowClass,
    ForwardingTable,
    IngressMap,
    UNREACHABLE,
    classify,
    diff_ingress,
    ingress_map,
)
from .routes import Community
from .topology import EMPTY, Prefix, Topology, require_valid

SAME_PROVIDER = "same-provider"


class PlanningError(ValueError):
    """Invalid planning input (bad objective, unsupported granularity)."""


class Objective(NamedTuple):
    flow: Flow
    required_link: str

    def __str__(self) -> str:
        return f"{self.flow} -> {self.required_link}"


class ActionKind(Enum):
    # (rank, weight, phase, report name).  Rank breaks ties inside a cost
    # class.  Weight is the intervention cost: attaching a community or a MED
    # value is reversible tuning; withdrawing reachability or inflating
    # tables costs more.  te_config_from_actions expands kinds by phase.
    ATTACH_COMMUNITY = (0, 1, 2, "attach-community")
    SET_MED = (1, 1, 2, "set-med")
    ADVERTISE_MORE_SPECIFIC = (2, 2, 1, "advertise-more-specific")
    WITHHOLD = (3, 2, 0, "withhold")

    def __init__(self, rank: int, weight: int, phase: int, report_name: str) -> None:
        self.rank = rank
        self.weight = weight
        self.phase = phase
        self.report_name = report_name


class Action(NamedTuple):
    """One TE action on one (prefix, link) key.  A tuple: it equals and
    hashes like the tuple of its fields."""

    kind: ActionKind
    prefix: Prefix
    link_id: str
    community: Community | None = None
    med: int | None = None

    @classmethod
    def withhold(cls, prefix: Prefix, link_id: str) -> "Action":
        return cls(ActionKind.WITHHOLD, prefix, link_id)

    @classmethod
    def advertise_more_specific(cls, prefix: Prefix, link_id: str) -> "Action":
        return cls(ActionKind.ADVERTISE_MORE_SPECIFIC, prefix, link_id)

    @classmethod
    def attach(cls, prefix: Prefix, link_id: str, community: Community) -> "Action":
        return cls(ActionKind.ATTACH_COMMUNITY, prefix, link_id, community=community)

    @classmethod
    def set_med(cls, prefix: Prefix, link_id: str, med: int) -> "Action":
        return cls(ActionKind.SET_MED, prefix, link_id, med=med)

    def sort_key(self) -> tuple:
        extra = str(self.community) if self.community is not None else ""
        return (self.kind.rank, self.prefix, self.link_id, extra, self.med or 0)

    def __str__(self) -> str:
        parts = [self.kind.report_name, str(self.prefix), self.link_id]
        if self.community is not None:
            parts.append(str(self.community))
        if self.med is not None:
            parts.append(str(self.med))
        return " ".join(parts)


class InfeasibilityWitness(NamedTuple):
    """Two objectives that cannot both hold, plus where their candidate
    routes merge: a pivot ASN, or "same-provider" when both required links
    land on one provider."""

    first: Objective
    second: Objective
    pivot: int | str

    def __str__(self) -> str:
        return f"witness {self.pivot}: [{self.first}] vs [{self.second}]"


class Plan(NamedTuple):
    actions: tuple[Action, ...]
    predicted_map: IngressMap
    side_effects: tuple[tuple[int, Prefix, str, str], ...]
    # The topology holds LP overrides, which may outrank the path lengths
    # the plan acts on.
    lp_constraint_violated: bool = False


class Infeasible(NamedTuple):
    witnesses: tuple[InfeasibilityWitness, ...]


class Exhausted(NamedTuple):
    candidates_tried: int
    max_actions: int


class Budget(NamedTuple):
    max_actions: int = 3


class EvaluationReport(NamedTuple):
    satisfied: tuple[bool, ...]
    side_effects: tuple[tuple[int, Prefix, str, str], ...]
    rounds_used: int


def _objective_sources(t: Topology, dest: int, o: Objective) -> tuple[int, ...]:
    """The ASes whose traffic `o` steers: its source, or for `*` every stub
    AS other than dest (`_origin`), in ASN order."""
    if o.flow.src_asn is not None:
        return (o.flow.src_asn,)
    return _origin(t, dest).stubs


def validate_objectives(t: Topology, dest: int, objectives: Sequence[Objective]) -> None:
    if dest not in t.roles:
        raise PlanningError(f"unknown destination AS {dest}")
    if t.roles[dest] != "stub":
        raise PlanningError(f"destination AS {dest} is not a stub")
    originated = t.originated_by(dest)
    if not originated:
        raise PlanningError(f"destination AS {dest} originates nothing")
    if not objectives:
        raise PlanningError("no objectives given")
    for o in objectives:
        flow = o.flow
        if flow.dst_asn != dest:
            raise PlanningError(f"objective {o} does not target AS {dest}")
        if classify(flow) is _SOURCE_PREFIX:
            raise PlanningError(
                f"objective {o}: source-prefix granularity is unsupported; forwarding "
                "is destination-based, so source addresses cannot steer ingress"
            )
        link = t.links_by_id.get(o.required_link)
        if link is None:
            raise PlanningError(f"unknown link id: {o.required_link}")
        if dest != link.a and dest != link.b:
            raise PlanningError(f"objective {o}: link {o.required_link} is not incident to AS {dest}")
        if not link.up:
            raise PlanningError(f"objective {o}: link {o.required_link} is down")
        src, prefix = flow.src_asn, flow.dst_prefix
        if src is not None and src not in t.roles:
            raise PlanningError(f"objective {o}: unknown source AS {src}")
        if src == dest:
            raise PlanningError(f"objective {o}: source equals destination")
        if not _objective_sources(t, dest, o):
            raise PlanningError(f"objective {o}: no stub AS other than AS {dest} sources its traffic")
        if prefix not in originated and not any(p.contains(prefix) for p in originated):
            raise PlanningError(f"objective {o}: {prefix} is outside AS {dest}'s originated space")
    for o1, o2 in itertools.combinations(objectives, 2):
        if o1.flow.dst_prefix != o2.flow.dst_prefix:
            continue
        if o1.required_link == o2.required_link:
            continue
        overlap = (
            o1.flow.src_asn is None
            or o2.flow.src_asn is None
            or o1.flow.src_asn == o2.flow.src_asn
        )
        if overlap:
            raise PlanningError(
                f"contradictory objectives: [{o1}] and [{o2}] pin overlapping traffic to different links"
            )


def _walk(t: Topology, dest: int, link_id: str, avoid: int | None = None) -> dict[tuple[int, str], tuple[int, str] | None]:
    """The (AS, link it learned the route on) states that dest's announcement
    over `link_id` reaches as valley-free export passes it on
    (`Sessions.by_learned`), never through dest or `avoid`, in breadth-first
    order, each with the state it was first reached from: None for the
    provider's.  Empty when the link is down."""
    sessions = t.sessions
    start = (t.link_by_id(link_id).other(dest), link_id)
    if start[0] == avoid or link_id not in sessions[start[0]].by_learned:
        return {}
    parent: dict[tuple[int, str], tuple[int, str] | None] = {start: None}
    todo = [start]
    for state in todo:  # it grows as it goes: a breadth-first queue
        for s in sessions[state[0]].by_learned[state[1]][0]:
            nxt = (s.neighbor, s.link_id)
            if nxt not in parent and s.neighbor != dest and s.neighbor != avoid:
                parent[nxt] = state
                todo.append(nxt)
    return parent


def _reach(t: Topology, dest: int, link_id: str, avoid: int | None = None) -> set[int]:
    """The ASes of `_walk`'s states: those dest's announcement over `link_id` reaches."""
    return {asn for asn, _learned_on in _walk(t, dest, link_id, avoid)}


def _path(t: Topology, dest: int, link_id: str, target: int) -> list[int]:
    """The ASes that one shortest `_walk` passes, in order, before its first
    state of `target`; empty when it reaches none."""
    parent = _walk(t, dest, link_id)
    state = next((state for state in parent if state[0] == target), None)
    back = []  # target back to the provider
    while state is not None:
        back.append(state[0])
        state = parent[state]
    return back[:0:-1]


def common_upstream_check(t: Topology, objectives: Sequence[Objective]) -> list[InfeasibilityWitness]:
    """Screen same-prefix objective pairs that no prepending pattern can
    split.  Sound, not complete: every witness is a real conflict.

    A pair with distinct sources and links is a witness when both links land
    on one provider (SAME_PROVIDER), or when an AS other than dest and the
    sources is a cut of both, on every legal path of each: a simple path on
    which dest's announcement over the objective's link reaches its source
    past the provider.  The pivot is the first such AS along them.

    `_walk` decides both without listing paths.  Valley-free export only
    narrows along a walk (a route learned from a customer goes to every
    neighbor, one learned from a peer or provider only to customers), so a
    walk that meets an AS again can skip the loop in between.  So any walk
    to the source cuts into a legal path through a subset of its ASes, an AS
    is a cut exactly when the walk that avoids it reaches no state of the
    source, and a shortest walk, `_path`, is a legal path.  Cuts come in one
    order on every legal path.  Were x before y on P and y before x on Q,
    P to x and on as Q goes would be a walk that avoids y, unless Q's state
    at x is freer than P's.  Then Q's state at y, no less free than at x, is
    freer than P's at y, no freer than at x, so Q to y and on as P goes would
    be a walk that avoids x.  So the pivot is the first AS of the first
    objective's `_path` that is on the second's and a cut of both."""
    witnesses: list[InfeasibilityWitness] = []
    paths: dict[tuple[int, str, int], list[int]] = {}  # each judged objective's, walked once
    for o1, o2 in itertools.combinations(objectives, 2):
        (l1, s1), (l2, s2) = (o1.required_link, o1.flow.src_asn), (o2.required_link, o2.flow.src_asn)
        if o1.flow.dst_prefix != o2.flow.dst_prefix or l1 == l2 or s1 is None or s2 is None or s1 == s2:
            continue
        dest = o1.flow.dst_asn
        if t.link_by_id(l1).other(dest) == t.link_by_id(l2).other(dest):
            witnesses.append(InfeasibilityWitness(o1, o2, SAME_PROVIDER))
            continue
        for key in (dest, l1, s1), (dest, l2, s2):
            if key not in paths:
                paths[key] = _path(t, *key)
        path2 = paths[dest, l2, s2]
        for x in paths[dest, l1, s1]:
            if x in path2 and s1 not in _reach(t, dest, l1, x) and s2 not in _reach(t, dest, l2, x):
                witnesses.append(InfeasibilityWitness(o1, o2, x))  # the first merge
                break
    return witnesses


class _Origin(NamedTuple):
    """What an action set is expanded against, for one destination AS."""

    originated: tuple[Prefix, ...]  # in order
    # Up link id -> the communities of its provider's catalog (none without
    # one), for each up link in link id order.
    offered: Mapping[str, frozenset[Community]]
    # (prefix, link id) -> the plain announcement of each originated prefix
    # on each up link, in key order: the table with no action applied.
    plain: Mapping[tuple[Prefix, str], Advertisement]
    # The community and MED atoms, in Action.sort_key order, with their
    # prepend counts: every atom that sorts before the more-specifics.
    head: tuple[Action, ...]
    head_prepends: tuple[int, ...]
    stubs: tuple[int, ...]  # every stub AS but dest, in ASN order


def _origin(t: Topology, dest: int) -> _Origin:
    """dest's `_Origin`, compiled on first use and kept in `t.compiled`;
    PlanningError when dest is not declared."""
    key = ("planner.origin", dest)
    origin = t.compiled.get(key)
    if origin is None:
        if dest not in t.roles:
            raise PlanningError(f"unknown destination AS {dest}")
        originated = tuple(sorted(t.originated_by(dest)))
        sessions = t.sessions[dest].all
        # A provider offers the communities its catalog maps: those it strips.
        offered = {s.link_id: t.sessions[s.neighbor].strip for s in sessions}
        plain = {(p, l): Advertisement(dest, p, l) for p in originated for l in offered}
        # MED values discriminate only among links to one neighbor.
        neighbors = [s.neighbor for s in sessions]
        med_capable = [s.link_id for s in sessions if neighbors.count(s.neighbor) >= 2]
        head = [
            Action(ActionKind.ATTACH_COMMUNITY, p, l, c)
            for p in originated for l, communities in offered.items() for c in sorted(communities, key=str)
        ]
        head += [Action(ActionKind.SET_MED, p, l, None, v) for p in originated for l in med_capable for v in (10, 20)]
        origin = t.compiled.setdefault(key, _Origin(
            originated,
            offered,
            plain,
            tuple(head),
            tuple(_prepend_amount(t, dest, a) for a in head),
            tuple(a for a in sorted(t.roles) if a != dest and t.roles[a] == "stub"),
        ))
    return origin


def _build_atoms(
    t: Topology, dest: int, objectives: Sequence[Objective]
) -> list[Action]:
    """Every single action on dest's up links, in Action.sort_key order: by
    rank, then prefix, link id, community text and MED.  Only the
    more-specific atoms, on the objectives' prefixes that dest does not
    originate, and the withholds are built per plan; `_origin` holds the
    others."""
    origin = _origin(t, dest)
    subs = sorted({o.flow.dst_prefix for o in objectives}.difference(origin.originated))
    more_specific = [Action(_MORE_SPECIFIC, sp, l) for sp in subs for l in origin.offered]
    withholds = [Action(_WITHHOLD, p, l) for p in origin.originated for l in origin.offered]
    return [*origin.head, *more_specific, *withholds]


def _prepend_counts(t: Topology, dest: int, atoms: Sequence[Action]) -> list[int]:
    """The prepend count of each of `atoms` (`_build_atoms`): the community
    atoms' counts come compiled with them (`_origin`), and no other atom
    prepends."""
    head = _origin(t, dest).head_prepends
    return [*head, *[0] * (len(atoms) - len(head))]


# The announcement of a (prefix, link) key as (communities, MED), and the
# answer of _announcement for a key whose actions are inconsistent.
_PLAIN: tuple[frozenset[Community], int | None] = (EMPTY, None)
_CLASH = "inconsistent"

_phase = attrgetter("kind.phase")
# An enum member read through its class costs a descriptor call each time.
_WITHHOLD, _MORE_SPECIFIC, _ATTACH = (
    ActionKind.WITHHOLD, ActionKind.ADVERTISE_MORE_SPECIFIC, ActionKind.ATTACH_COMMUNITY
)
_SOURCE_PREFIX = FlowClass.SOURCE_PREFIX


def _announcement(
    origin: _Origin, key: tuple[Prefix, str], actions: Sequence[Action]
) -> tuple[frozenset[Community], int | None] | None | str:
    """The per-key rule: one (prefix, link) key's announcement, as
    (communities, MED), once its `actions` have acted on it in ActionKind
    phase order; None when they leave it unannounced, _CLASH when they are
    inconsistent.  The key starts announced plainly when it is an originated
    prefix on an up link.  A withhold needs the announcement present; a
    more-specific needs it absent, an up link and a strict subprefix of an
    originated prefix; a community needs it present and the community in the
    provider's catalog and not yet attached; a MED needs it present with no
    MED yet."""
    entry = _PLAIN if key in origin.plain else None
    prefix, link_id = key
    for a in sorted(actions, key=_phase) if len(actions) > 1 else actions:
        kind = a.kind
        if kind is _WITHHOLD:
            if entry is None:
                return _CLASH
            entry = None
        elif kind is _MORE_SPECIFIC:
            if entry is not None or link_id not in origin.offered:
                return _CLASH
            if not any(prefix.is_strict_subprefix_of(p) for p in origin.originated):
                return _CLASH
            entry = _PLAIN
        elif entry is None:
            return _CLASH
        elif kind is _ATTACH:
            communities, med = entry
            if a.community not in origin.offered[link_id] or a.community in communities:
                return _CLASH
            entry = (communities | {a.community}, med)
        else:
            if entry[1] is not None:
                return _CLASH
            entry = (entry[0], a.med)
    return entry


def te_config_from_actions(t: Topology, dest: int, actions: Sequence[Action]) -> TeConfig | None:
    """Expand an action set into an explicit advertisement table, or None when
    the set is internally inconsistent.  Each originated prefix starts
    announced plainly on each of dest's up links (`_origin`'s table, compiled
    once per topology); each (prefix, link) key the actions name then takes
    the announcement the per-key rule (`_announcement`) gives it.  So a set
    is consistent exactly when each key's actions are, and the order of the
    actions changes nothing.  An originated prefix withheld on every link
    goes into `withheld`, so it is announced nowhere (traffic for it falls
    back to a covering prefix, if dest announces one, else it is
    unreachable)."""
    origin = _origin(t, dest)
    plain = origin.plain
    by_key: dict[tuple[Prefix, str], list[Action]] = {}
    for a in actions:
        by_key.setdefault((a.prefix, a.link_id), []).append(a)
    ads = dict(plain)
    added = False  # a key outside the plain table, which is in key order
    dropped = []  # the prefixes of the keys left unannounced
    for key, key_actions in by_key.items():
        entry = _announcement(origin, key, key_actions)
        if entry is _CLASH:
            return None
        if entry is None:
            del ads[key]
            dropped.append(key[0])
        else:
            added = added or key not in plain
            ads[key] = tuple.__new__(Advertisement, (dest, *key, *entry))
    if added:
        ads = dict(sorted(ads.items()))
    withheld: frozenset[tuple[int, Prefix]] = EMPTY
    if dropped:
        announced = {p for p, _link_id in ads}
        withheld = frozenset((dest, p) for p in dropped if p not in announced)
    return tuple.__new__(TeConfig, (tuple(ads.values()), withheld))


def _prepend_amount(t: Topology, dest: int, action: Action) -> int:
    if action.kind is not ActionKind.ATTACH_COMMUNITY:
        return 0
    cat = t.catalogs.get(t.link_by_id(action.link_id).other(dest))
    if cat is None:
        return 0
    rule = cat.prepend_rules.get(action.community)
    return rule[1] if rule else 0


def plan_cost(t: Topology, dest: int, actions: Sequence[Action]) -> tuple:
    weight = sum(a.kind.weight for a in actions)
    prepends = sum(_prepend_amount(t, dest, a) for a in actions)
    return (weight, prepends, tuple(a.sort_key() for a in sorted(actions, key=Action.sort_key)))


def _objective_satisfied(table: ForwardingTable, o: Objective, sources: Sequence[int]) -> bool:
    """True when the traffic of each of `sources` (`_objective_sources` of
    `o`) that reaches dest enters it over `o.required_link`, and some does;
    `table` is the state's ForwardingTable for `o`'s destination prefix and
    dest."""
    required = o.required_link
    any_reachable = False
    for src in sources:
        entry = table.entry_link(src)
        if entry == required:
            any_reachable = True
        elif entry is not None:
            return False
    return any_reachable


def _verdicts(
    state: ConvergedState, t: Topology, dest: int, goals: Sequence[tuple[Objective, Sequence[int]]]
) -> list[bool]:
    """_objective_satisfied of each (objective, its sources) in `goals`, in
    order, with one ForwardingTable per destination prefix."""
    tables: dict[Prefix, ForwardingTable] = {}
    verdicts = []
    for o, sources in goals:
        prefix = o.flow.dst_prefix
        table = tables.get(prefix)
        if table is None:
            table = tables[prefix] = ForwardingTable(state, t, prefix, dest)
        verdicts.append(_objective_satisfied(table, o, sources))
    return verdicts


def _side_effects(
    t: Topology, objectives: Sequence[Objective], base: IngressMap, new: IngressMap
) -> tuple[tuple[int, Prefix, str, str], ...]:
    """Moves of stub-source traffic not demanded by any objective.  A move
    is demanded by an objective on its prefix that requires its new link, for
    its source or for every source.  Transit ASes necessarily co-move with
    the stubs behind them, so only stub sources are reported."""
    return tuple(
        (src, prefix, old, link)
        for src, prefix, old, link in diff_ingress(base, new)
        if t.roles.get(src) == "stub"
        and not any(
            o.flow.dst_prefix == prefix and o.required_link == link and o.flow.src_asn in (None, src)
            for o in objectives
        )
    )


def _prefix_groups(t: Topology, objectives: Sequence[Objective]) -> list[frozenset[Prefix]]:
    """Connected components of the containment relation over every AS's
    originated prefixes plus the objective prefixes, ordered by their lowest
    prefix.  Longest-prefix match only ever picks among covering prefixes,
    so no action on one group's prefixes changes another group's routes or
    forwarding."""
    universe = {p for prefixes in t.originations.values() for p in prefixes}
    universe |= {o.flow.dst_prefix for o in objectives}
    # Two prefixes are nested or disjoint, and a prefix sorts before every
    # prefix inside it, so each component is its first prefix and the run of
    # prefixes that follow inside it.
    groups: list[list[Prefix]] = []
    for p in sorted(universe):
        if groups and groups[-1][0].contains(p):
            groups[-1].append(p)
        else:
            groups.append([p])
    return [frozenset(g) for g in groups]


class _Parts:
    """One group's non-empty parts (sets of its atoms) of at most `cap`
    atoms, generated lazily in ascending cost.

    A part's cost is (total weight, total prepends, its atom indices in
    ascending order); `atoms` is sorted by Action.sort_key, so costs order
    parts exactly as plan_cost does.  Over the group's atoms ordered by
    (weight, prepends, sort key), a part's successors add the atom after
    its last one, or replace its last atom with that next atom.  Each part
    has one predecessor, and both steps raise the cost (replacing an atom
    with a later one raises each position of the sorted index tuple or
    leaves it), so a heap pops every part once, in ascending cost.  Parts
    above `cap`, which the caller may lower at any time, are dropped with
    their successors, which are no smaller."""

    def __init__(
        self, members: Sequence[int], weights: Sequence[int], prepends: Sequence[int], cap: int
    ) -> None:
        self._order = sorted(members, key=lambda i: (weights[i], prepends[i], i))
        self._weights, self._prepends = weights, prepends
        self.cap = cap
        self._heap: list[tuple[tuple, tuple[int, ...]]] = []
        if self._order and cap >= 1:
            self._push((0,))

    def _push(self, chosen: tuple[int, ...]) -> None:
        weights, prepends = self._weights, self._prepends
        if len(chosen) == 1:
            i = self._order[chosen[0]]
            heapq.heappush(self._heap, ((weights[i], prepends[i], (i,)), chosen))
            return
        indices = sorted([self._order[j] for j in chosen])
        weight = prepend = 0
        for i in indices:
            weight += weights[i]
            prepend += prepends[i]
        heapq.heappush(self._heap, ((weight, prepend, tuple(indices)), chosen))

    def peek(self) -> tuple | None:
        """The next part's cost, or None when no part is left."""
        heap = self._heap
        while heap and len(heap[0][1]) > self.cap:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop(self) -> tuple:
        """The next part's cost; call only after peek returned one."""
        cost, chosen = heapq.heappop(self._heap)
        nxt = chosen[-1] + 1
        if nxt < len(self._order):
            if len(chosen) < self.cap:
                self._push(chosen + (nxt,))
            self._push(chosen[:-1] + (nxt,))
        return cost


def _combined(costs: Sequence[tuple]) -> tuple:
    """The cost of the union of parts from different groups.  Weights and
    prepends add up; the atom indices interleave, since Action.sort_key
    starts with the action kind.  One part's cost is its own."""
    if len(costs) == 1:
        return costs[0]
    return (
        sum(c[0] for c in costs),
        sum(c[1] for c in costs),
        tuple(sorted(i for c in costs for i in c[2])),
    )


def _cheapest_fit(
    fronts: Sequence[Sequence[tuple[tuple, ConvergedState]]], max_actions: int
) -> tuple[tuple, tuple[ConvergedState, ...]] | None:
    """The cheapest choice of one (cost, state) per group whose parts hold at
    most `max_actions` atoms together, as (combined cost, states); None when
    no choice fits."""
    best = None
    for choice in itertools.product(*fronts):
        if sum(len(cost[2]) for cost, _state in choice) > max_actions:
            continue
        cost = _combined([c for c, _state in choice])
        if best is None or cost < best[0]:
            best = (cost, tuple(state for _cost, state in choice))
    return best


def _consistent_sets(t: Topology, dest: int, atoms: Sequence[Action], max_actions: int) -> int:
    """How many sets of at most `max_actions` atoms te_config_from_actions
    accepts.  It applies the per-key rule (`_announcement`) to each (prefix,
    link) key on its own, so this is the convolution, by size, of each key's
    counts, and each key's count applies that rule to every combination of
    the key's atoms; nothing is expanded."""
    origin = _origin(t, dest)
    by_key: dict[tuple[Prefix, str], list[Action]] = {}
    for a in atoms:
        by_key.setdefault((a.prefix, a.link_id), []).append(a)
    total = [1]  # total[n]: consistent sets of n atoms over the keys so far
    for key, key_atoms in by_key.items():
        counts = [1] + [
            sum(_announcement(origin, key, combo) is not _CLASH
                for combo in itertools.combinations(key_atoms, n))
            for n in range(1, min(len(key_atoms), max_actions) + 1)
        ]
        merged = [0] * min(len(total) + len(counts) - 1, max_actions + 1)
        for i, x in enumerate(total):
            for j, y in enumerate(counts[: len(merged) - i]):
                merged[i + j] += x * y
        total = merged
    return sum(total)


def plan_inbound_te(
    t: Topology,
    dest: int,
    objectives: Sequence[Objective],
    budget: Budget = Budget(),
) -> Plan | Infeasible | Exhausted:
    """The action set of least plan_cost, among those of at most
    `budget.max_actions` actions, whose simulation converges and meets every
    objective.

    The search works per prefix group (`_prefix_groups`): consistency is
    checked per (prefix, link) key, each group converges on its own, and an
    objective depends only on its own group's routes.  So the answer is the
    cheapest combination of one satisfying part per group.  A group that the
    baseline run meets, or that has no objectives, takes its empty part.
    When it meets every group, the answer is the empty plan, whose
    predicted map is the baseline's, and nothing is built for a search.
    Each other group judges its parts lazily in ascending cost (`_Parts`),
    one run restricted to the group per consistent part, and once it has a
    satisfying part only smaller parts can still help it.  A group's least
    possible cost is its cheapest satisfying part's so far, else its next
    part's.  One rule picks the next part and ends the search: judge the
    part whose cost, combined with the other groups' least possible costs,
    is lowest, and stop when that cannot beat the cheapest combination that
    fits the budget, or when a group without a satisfying part has no part
    left.  The result is that of simulating every candidate in full in
    ascending cost; Exhausted.candidates_tried is the number of consistent
    candidates, all of which that search would have judged.

    An unmet one-prefix group where some objective has no source in its
    required link's `_reach` is decided at once, with the Exhausted the
    search would return after judging every part in vain.  This is sound:
    no other prefix covers or lies inside the group's, so every AS on a
    forwarding walk holds that prefix and the walk follows the source's AS
    path, which valley-free export (`Sessions.by_learned`) built from dest
    over its entry link.  Catalogs, LP, MED, prepends, suppression and
    withholds only remove or re-rank such paths.  So a source outside the
    reach set never enters over the link, and an objective needs one to
    (`_objective_satisfied`).  Groups of several prefixes are searched: a
    walk there can switch to a longer prefix and leave those paths."""
    if budget.max_actions < 0:
        raise PlanningError(f"action budget must be >= 0, got {budget.max_actions}")
    require_valid(t)
    validate_objectives(t, dest, objectives)
    witnesses = common_upstream_check(t, objectives)
    if witnesses:
        return Infeasible(tuple(witnesses))

    baseline_te = te_config_from_actions(t, dest, [])
    baseline_state = propagate_to_convergence(t, baseline_te)

    groups = _prefix_groups(t, objectives)
    group_of = {p: g for g, prefixes in enumerate(groups) for p in prefixes}
    # Per group with objectives, each objective with its sources.
    goals: dict[int, list[tuple[Objective, tuple[int, ...]]]] = {}
    for o in objectives:
        goals.setdefault(group_of[o.flow.dst_prefix], []).append((o, _objective_sources(t, dest, o)))

    def satisfies(g: int, state: ConvergedState) -> bool:
        return all(_verdicts(state, t, dest, goals[g]))

    unmet = [g for g in goals if not satisfies(g, baseline_state)]
    if not unmet:
        return Plan((), ingress_map(baseline_state, t, dest), (), bool(t.lp_overrides))
    atoms = _build_atoms(t, dest, objectives)
    weights = [a.kind.weight for a in atoms]
    prepends = _prepend_counts(t, dest, atoms)

    def judge(g: int, indices: tuple[int, ...]) -> ConvergedState | None:
        """The group's state when the part is consistent, converges and
        meets the group's objectives, else None."""
        te = te_config_from_actions(t, dest, [atoms[i] for i in indices])
        if te is None:
            return None
        try:
            state = propagate_to_convergence(t, te, prefixes=groups[g])
        except OscillationError:
            return None
        return state if satisfies(g, state) else None

    for g in unmet:
        if len(groups[g]) == 1 and any(_reach(t, dest, o.required_link).isdisjoint(s) for o, s in goals[g]):
            return Exhausted(_consistent_sets(t, dest, atoms, budget.max_actions), budget.max_actions)
    # Only the unmet groups are searched, and each needs at least one action.
    cap = budget.max_actions - len(unmet) + 1
    queues = {
        g: _Parts([i for i, a in enumerate(atoms) if group_of[a.prefix] == g], weights, prepends, cap)
        for g in unmet
    }
    # Per searched group, its satisfying parts so far as (cost, state),
    # cheapest first.
    fronts = {g: [] for g in unmet}
    best = _cheapest_fit(list(fronts.values()), budget.max_actions)
    while True:
        # The docstring's rule.  _combined is symmetric and strictly monotone
        # in each cost (atoms weigh at least 1; groups share no atom), and a
        # group's next part costs more than its judged ones.  So the groups
        # with no satisfying part yet tie for the lowest bound, and the
        # others bound higher: those groups find one in `unmet` order.
        least = [front[0][0] if front else q.peek() for q, front in zip(queues.values(), fronts.values())]
        if None in least:
            break  # a group that can no longer be met
        bound = None
        for j, (h, q) in enumerate(queues.items()):
            cost = q.peek()
            if cost is not None:
                b = _combined([cost, *least[:j], *least[j + 1:]])
                if bound is None or b < bound:
                    g, bound = h, b
        if bound is None or (best is not None and bound >= best[0]):
            break
        cost = queues[g].pop()
        state = judge(g, cost[2])
        if state is not None:
            fronts[g].append((cost, state))
            queues[g].cap = len(cost[2]) - 1
            best = _cheapest_fit(list(fronts.values()), budget.max_actions)

    if best is None:
        return Exhausted(_consistent_sets(t, dest, atoms, budget.max_actions), budget.max_actions)
    cost, states = best
    baseline_map = ingress_map(baseline_state, t, dest)
    # Each originated prefix's entries come from its own group's state (its
    # forwarding reads only its group's routes), the baseline's by default.
    chosen = dict(zip(fronts, states))
    originated = _origin(t, dest).originated
    tables = {p: ForwardingTable(chosen[group_of[p]], t, p, dest) for p in originated if group_of[p] in chosen}
    predicted = IngressMap(dest, {
        (src, p): (tables[p].entry_link(src) or UNREACHABLE) if p in tables else link
        for (src, p), link in baseline_map.entries.items()
    })
    side = _side_effects(t, objectives, baseline_map, predicted)
    return Plan(tuple(atoms[i] for i in cost[2]), predicted, side, bool(t.lp_overrides))


def evaluate_plan(t: Topology, dest: int, plan: Plan, objectives: Sequence[Objective]) -> EvaluationReport:
    """Independent re-simulation of a plan; nothing is copied from the plan
    except its action list.  Side effects diff its ingress map against a
    separate full run of the baseline; a plan with no actions is the
    baseline: one run, and no side effects."""
    require_valid(t)
    validate_objectives(t, dest, objectives)
    te = te_config_from_actions(t, dest, plan.actions)
    if te is None:
        raise PlanningError("plan contains invalid action references")
    state = propagate_to_convergence(t, te)
    goals = [(o, _objective_sources(t, dest, o)) for o in objectives]
    satisfied = tuple(_verdicts(state, t, dest, goals))
    side = ()
    if plan.actions:
        baseline_te = te_config_from_actions(t, dest, [])
        baseline_map = ingress_map(propagate_to_convergence(t, baseline_te), t, dest)
        side = _side_effects(t, objectives, baseline_map, ingress_map(state, t, dest))
    return EvaluationReport(satisfied, side, state.rounds_used)
