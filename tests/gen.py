"""Seeded random generators and independent oracles shared by the suites.

The route oracle computes converged best routes constructively, in three
relationship stages (customer-learned routes bottom-up, then one peer
crossing, then provider routes top-down), which is a different algorithm
family from the engine's synchronous fixed-point iteration.  It covers
policy-free configurations: default LPs make customer routes dominate, so
each stage is self-contained.
"""

from __future__ import annotations

import itertools
import random

from bgpsteer.engine import Advertisement, TeConfig
from bgpsteer.planner import Budget, Objective, PlanningError, plan_cost, validate_objectives
# The suites drive planner internals on purpose.
from bgpsteer.planner import _build_atoms  # noqa
from bgpsteer.planner import te_config_from_actions
from bgpsteer.engine import ConvergedState, OscillationError, propagate_to_convergence
from bgpsteer.flows import Flow, resolve_forwarding
from bgpsteer.policies import PeerSelector, PolicyCatalog
from bgpsteer.routes import Community, Route, best_of, local_route
from bgpsteer.topology import LP_CUSTOMER, LP_PEER, LP_PROVIDER, Link, Prefix, Rel, Topology

PREFIX_POOL = [
    Prefix.parse("10.1.0.0/16"),
    Prefix.parse("10.2.0.0/16"),
    Prefix.parse("10.3.0.0/16"),
]


def rand_topology(
    rng: random.Random,
    max_as: int = 6,
    *,
    with_catalogs: bool = False,
    p_extra: float = 0.35,
    p_peer: float = 0.35,
    p_parallel: float = 0.15,
    p_down: float = 0.08,
) -> Topology:
    n = rng.randint(2, max_as)
    order = rng.sample(range(100, 60000), n)  # index 0 is the top tier
    links: list[Link] = []
    used_pairs: dict[frozenset[int], str] = {}

    def add(a: int, b: int, customer: int | None) -> None:
        links.append(Link(f"l{len(links) + 1}", a, b, customer))

    for k in range(1, n):
        provider = order[rng.randrange(k)]
        add(order[k], provider, order[k])
        used_pairs[frozenset((order[k], provider))] = "c2p"
    for i in range(n):
        for j in range(i + 1, n):
            hi, lo = order[i], order[j]
            if frozenset((hi, lo)) in used_pairs or rng.random() >= p_extra:
                continue
            if rng.random() < p_peer:
                add(hi, lo, None)
                used_pairs[frozenset((hi, lo))] = "p2p"
            else:
                add(lo, hi, lo)
                used_pairs[frozenset((hi, lo))] = "c2p"
    for link in list(links):
        if rng.random() < p_parallel:
            add(link.a, link.b, link.customer)
    links = [
        link._replace(up=False) if rng.random() < p_down else link for link in links
    ]

    providers = {l.other(l.customer) for l in links if l.customer is not None}
    roles = {asn: ("transit" if asn in providers else "stub") for asn in order}

    n_origins = rng.randint(1, min(2, n))
    origins = rng.sample(order, n_origins)
    originations: dict[int, frozenset[Prefix]] = {}
    pool = PREFIX_POOL[:]
    rng.shuffle(pool)
    for asn in origins:
        take = rng.randint(1, 2)
        mine, pool = pool[:take], pool[take:]
        if mine:
            originations[asn] = frozenset(mine)

    catalogs: dict[int, PolicyCatalog] = {}
    if with_catalogs:
        for asn in order:
            if roles[asn] != "transit" or rng.random() < 0.4:
                continue
            neighbors = sorted(
                {l.other(asn) for l in links if asn in l.endpoints()}
            )
            lp_rules = {}
            prepend_rules = {}
            suppress_rules = {}
            low = 10
            for lp in rng.sample([30, 50, 120, 250], rng.randint(0, 2)):
                lp_rules[Community(asn % 0xFFFF, low)] = lp
                low += 1
            for target in rng.sample(neighbors, min(len(neighbors), rng.randint(0, 2))):
                count = rng.randint(1, 3)
                prepend_rules[Community(asn % 0xFFFF, low)] = (PeerSelector.specific(target), count)
                low += 1
            if rng.random() < 0.3:
                prepend_rules[Community(asn % 0xFFFF, low)] = (PeerSelector.all_upstreams(), rng.randint(1, 3))
                low += 1
            if rng.random() < 0.3:
                sel = (
                    PeerSelector.all_upstreams()
                    if rng.random() < 0.5 or not neighbors
                    else PeerSelector.specific(rng.choice(neighbors))
                )
                suppress_rules[Community(asn % 0xFFFF, low)] = sel
                low += 1
            cat = PolicyCatalog(
                asn,
                lp_rules,
                suppress_rules,
                prepend_rules,
                {},
                drops_community_updates=False,
            )
            if not cat.is_empty():
                catalogs[asn] = cat
    return Topology(roles, tuple(links), originations, catalogs)


def with_rule_facts(rng: random.Random, t: Topology) -> Topology:
    """`t` plus policy facts that rand_topology never draws: a p2p link
    parallel to an up c2p link (so `neighbor_rels` counts the peer as a
    customer), catalogs that drop community updates, and region-tagged
    neighbors targeted by `PeerSelector.for_region` rules."""
    links = list(t.links)
    c2p = [l for l in links if l.up and l.customer is not None]
    if c2p and rng.random() < 0.6:
        l = rng.choice(c2p)
        links.append(Link(f"l{len(links) + 1}", l.a, l.b, None))
    catalogs = dict(t.catalogs)
    for asn in sorted(a for a, role in t.roles.items() if role == "transit"):
        if rng.random() < 0.3:
            continue
        cat = catalogs.get(asn, PolicyCatalog(asn))
        neighbors = sorted({l.other(asn) for l in links if asn in l.endpoints()})
        regions = {n: rng.choice(("eu", "us")) for n in neighbors if rng.random() < 0.6}
        suppress, prepend = dict(cat.suppress_rules), dict(cat.prepend_rules)
        if regions:
            suppress[Community(asn % 0xFFFF, 90)] = PeerSelector.for_region(rng.choice(sorted(set(regions.values()))))
            prepend[Community(asn % 0xFFFF, 91)] = (PeerSelector.for_region(rng.choice(("eu", "us"))), rng.randint(1, 3))
        catalogs[asn] = cat._replace(
            suppress_rules=suppress,
            prepend_rules=prepend,
            region_of=regions,
            drops_community_updates=rng.random() < 0.4,
        )
    return t._replace(links=tuple(links), catalogs=catalogs)


def rand_te(
    rng: random.Random,
    t: Topology,
    *,
    with_communities: bool = False,
    with_lp_overrides: bool = False,
) -> tuple[Topology, TeConfig]:
    """`t` with the LP-override table drawn (empty unless
    `with_lp_overrides`), and a TE config over it."""
    ads: list[Advertisement] = []
    for origin in sorted(t.originations):
        up = sorted(t.up_links_of(origin), key=lambda l: l.id)
        for p in sorted(t.originated_by(origin), key=Prefix.sort_key):
            if not up or rng.random() >= 0.4:
                continue  # keep default full advertisement
            chosen = rng.sample(up, rng.randint(1, len(up)))
            for link in sorted(chosen, key=lambda l: l.id):
                med = rng.choice([None, None, 10, 20])
                comms: set[Community] = set()
                if with_communities:
                    provider = link.other(origin)
                    cat = t.catalogs.get(provider)
                    if cat is not None and cat.communities() and rng.random() < 0.7:
                        comms |= set(
                            rng.sample(
                                sorted(cat.communities(), key=Community.sort_key),
                                rng.randint(1, min(2, len(cat.communities()))),
                            )
                        )
                    if rng.random() < 0.2:
                        comms.add(Community(65000, rng.randint(1, 50)))  # inert
                ads.append(Advertisement(origin, p, link.id, frozenset(comms), med))
        if rng.random() < 0.15 and up:
            # advertise one more-specific half on a random link
            p = sorted(t.originated_by(origin), key=Prefix.sort_key)[0]
            if p.length < 32:
                sub = Prefix(p.base, p.length + 1)
                link = rng.choice(up)
                if not any(a.prefix == sub and a.link_id == link.id for a in ads):
                    ads.append(Advertisement(origin, sub, link.id, frozenset(), None))
    lp_overrides: dict[tuple[int, int], int] = {}
    if with_lp_overrides and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            asn = rng.choice(t.ases())
            neighbors = sorted({l.other(asn) for l in t.up_links_of(asn)})
            if neighbors:
                lp_overrides[(asn, rng.choice(neighbors))] = rng.choice([20, 80, 150, 400])
    ads.sort(key=lambda ad: (ad.origin, ad.prefix.sort_key(), ad.link_id))
    if lp_overrides:
        t = t._replace(lp_overrides=lp_overrides)
    return t, TeConfig(tuple(ads))


# ---------------------------------------------------------------------------
# Constructive route oracle (policy-free configurations)
# ---------------------------------------------------------------------------


def topo_order_customers_first(t: Topology) -> list[int]:
    providers_of: dict[int, set[int]] = {a: set() for a in t.roles}
    customers_of: dict[int, set[int]] = {a: set() for a in t.roles}
    for link in t.links:
        if link.up and link.customer is not None:
            c = link.customer
            p = link.other(c)
            providers_of[c].add(p)
            customers_of[p].add(c)
    indegree = {a: len(customers_of[a]) for a in t.roles}
    ready = sorted(a for a in t.roles if indegree[a] == 0)
    order: list[int] = []
    while ready:
        x = ready.pop(0)
        order.append(x)
        for p in sorted(providers_of[x]):
            indegree[p] -= 1
            if indegree[p] == 0:
                ready.append(p)
        ready.sort()
    if len(order) != len(t.roles):
        raise ValueError("customer->provider cycle; oracle not applicable")
    return order


def oracle_loc_ribs(t: Topology, te: TeConfig) -> dict[int, dict[Prefix, Route]]:
    assert not t.catalogs and not t.lp_overrides, "oracle covers policy-free runs"
    order = topo_order_customers_first(t)
    up_links = [l for l in t.links if l.up]

    explicit: dict[int, set[Prefix]] = {}
    for ad in te.advertisements:
        explicit.setdefault(ad.origin, set()).add(ad.prefix)
    ads: dict[tuple[int, Prefix, str], Advertisement] = {}
    keys: set[tuple[int, Prefix]] = set()
    for asn, prefixes in t.originations.items():
        for p in prefixes:
            keys.add((asn, p))
            if p not in explicit.get(asn, set()):
                for link in t.up_links_of(asn):
                    ads[(asn, p, link.id)] = Advertisement(asn, p, link.id)
    for ad in te.advertisements:
        keys.add((ad.origin, ad.prefix))
        ads[(ad.origin, ad.prefix, ad.link_id)] = ad

    result: dict[int, dict[Prefix, Route]] = {a: {} for a in t.roles}
    for origin, prefix in sorted(keys, key=lambda k: (k[0], k[1].sort_key())):

        def wire_from(sender: int, link: Link, best_up: dict[int, Route]) -> Route | None:
            if sender == origin:
                ad = ads.get((origin, prefix, link.id))
                if ad is None:
                    return None
                return Route(prefix, (origin,), 0, ad.med, ad.communities, link.id, origin)
            sent = best_up.get(sender)
            if sent is None:
                return None
            return sent._replace(as_path=(sender,) + sent.as_path, local_pref=0, learned_on=link.id)

        def install(wire: Route | None, receiver: int, lp: int) -> Route | None:
            if wire is None or receiver in wire.as_path:
                return None
            return wire._replace(local_pref=lp)

        best_up: dict[int, Route] = {origin: local_route(prefix, origin)}
        for x in order:
            if x == origin:
                continue
            cands = []
            for link in up_links:
                if x not in link.endpoints() or link.rel_from(x) is not Rel.CUSTOMER:
                    continue
                r = install(wire_from(link.other(x), link, best_up), x, LP_CUSTOMER)
                if r is not None:
                    cands.append(r)
            if cands:
                best_up[x] = best_of(cands)

        best_peer: dict[int, Route] = {}
        for x in t.roles:
            cands = []
            for link in up_links:
                if x not in link.endpoints() or link.rel_from(x) is not Rel.PEER:
                    continue
                r = install(wire_from(link.other(x), link, best_up), x, LP_PEER)
                if r is not None:
                    cands.append(r)
            if cands:
                best_peer[x] = best_of(cands)

        best: dict[int, Route] = {}
        for x in reversed(order):
            cands = []
            if x in best_up:
                cands.append(best_up[x])
            if x in best_peer:
                cands.append(best_peer[x])
            for link in up_links:
                if x not in link.endpoints() or link.rel_from(x) is not Rel.PROVIDER:
                    continue
                q = link.other(x)
                if q == origin:
                    r = install(wire_from(origin, link, best_up), x, LP_PROVIDER)
                else:
                    sent = best.get(q)  # never local: only `origin` owns this key
                    if sent is None:
                        continue
                    wire = sent._replace(as_path=(q,) + sent.as_path, local_pref=0, learned_on=link.id)
                    r = install(wire, x, LP_PROVIDER)
                if r is not None:
                    cands.append(r)
            if cands:
                best[x] = best_of(cands)
        for x in t.roles:
            if x in best:
                result[x][prefix] = best[x]
    return result


def is_valley_free(t: Topology, receiver: int, as_path: tuple[int, ...]) -> bool:
    """Check customer* peer? provider* over the links a route traversed,
    read from the origin outward.  Stage labels come from each hop's
    receiving side."""
    chain: list[int] = []
    for asn in reversed(as_path):  # origin ... first hop
        if not chain or chain[-1] != asn:
            chain.append(asn)
    chain.append(receiver)
    stage = 0  # 0 = climbing via customers, 1 = crossed a peer edge, 2 = descending
    for u, v in zip(chain, chain[1:]):
        rel = t.neighbor_rels(v).get(u)
        if rel is None:
            return False
        if rel is Rel.CUSTOMER:
            hop = 0
        elif rel is Rel.PEER:
            hop = 1
        else:
            hop = 2
        if hop == 0 and stage != 0:
            return False
        if hop == 1:
            if stage != 0:
                return False
            stage = 1
        if hop == 2:
            stage = 2
    return True


# ---------------------------------------------------------------------------
# Random planning instances + exhaustive search oracle
# ---------------------------------------------------------------------------


def rand_planning_instance(
    rng: random.Random,
) -> tuple[Topology, int, list[Objective], Budget]:
    # Instances stay within five ASes total.
    asns = rng.sample(range(100, 60000), 5)
    dest, p1, s1 = asns[0], asns[1], asns[3]
    same_provider = rng.random() < 0.25
    p2 = p1 if same_provider else asns[2]
    spare = [a for a in asns if a not in {dest, p1, p2, s1}]
    s2 = spare.pop() if spare and rng.random() < 0.7 else None
    upper = spare.pop() if spare and rng.random() < 0.5 else None

    links: list[Link] = [Link("l1", dest, p1, dest), Link("l2", dest, p2, dest)]
    roles = {dest: "stub", p1: "transit", p2: "transit", s1: "stub"}
    nxt = 3

    def add(a: int, b: int, customer: int | None) -> None:
        nonlocal nxt
        links.append(Link(f"l{nxt}", a, b, customer))
        nxt += 1

    if not same_provider and rng.random() < 0.3:
        add(p1, p2, p1)  # one provider buys transit from the other
    if upper is not None:
        roles[upper] = "transit"
        add(p1, upper, p1)
        if not same_provider and rng.random() < 0.6:
            add(p2, upper, p2)  # shared upstream: pivot territory
    candidates = sorted({p1, p2} | ({upper} if upper is not None else set()))
    sources = [s1] + ([s2] if s2 is not None else [])
    for src in sources:
        roles[src] = "stub"
        homes = rng.sample(candidates, min(len(candidates), rng.randint(1, 2)))
        for h in homes:
            add(src, h, src)

    prefixes = PREFIX_POOL[:1] if rng.random() < 0.7 else PREFIX_POOL[:2]
    originations = {dest: frozenset(prefixes)}

    catalogs: dict[int, PolicyCatalog] = {}
    for provider in sorted({p1, p2}):
        neighbors = sorted({l.other(provider) for l in links if provider in l.endpoints()})
        prepend_rules = {}
        low = 11
        for target in neighbors:
            if target == dest:
                continue
            prepend_rules[Community(provider % 0xFFFF, low)] = (PeerSelector.specific(target), 2)
            low += 1
        lp_rules = {Community(provider % 0xFFFF, 50): 50}
        catalogs[provider] = PolicyCatalog(provider, lp_rules, {}, prepend_rules, {})

    t = Topology(roles, tuple(links), originations, catalogs)
    objectives: list[Objective] = []
    if s2 is not None and rng.random() < 0.45:
        # split one prefix across both links by source: the shape the
        # upstream-in-common rule is about
        prefix = rng.choice(prefixes)
        first, second = ("l1", "l2") if rng.random() < 0.5 else ("l2", "l1")
        objectives.append(Objective(Flow(None, s1, prefix, dest), first))
        objectives.append(Objective(Flow(None, s2, prefix, dest), second))
    else:
        for _ in range(rng.randint(1, 2)):
            src = rng.choice(sources + [None])
            prefix = rng.choice(prefixes)
            link_id = rng.choice(["l1", "l2"])
            objectives.append(Objective(Flow(None, src, prefix, dest), link_id))
    return t, dest, objectives, Budget(max_actions=2)


def objective_holds(state: ConvergedState, t: Topology, dest: int, o: Objective) -> bool:
    """An objective's rule, stated over single-flow walks
    (`resolve_forwarding`) and not with the planner's own check: the
    traffic of each of its sources (the named AS, or every stub but `dest`
    for `*`) whose walk ends at `dest` enters it over `o.required_link`, and
    some traffic does."""
    src_asn = o.flow.src_asn
    sources = [src_asn] if src_asn is not None else [a for a, role in t.roles.items() if role == "stub" and a != dest]
    entries = set()
    for src in sources:
        hops = resolve_forwarding(state, t, src, o.flow.dst_prefix) or []
        here = src
        for link_id in hops:
            here = t.link_by_id(link_id).other(here)
        if hops and here == dest:
            entries.add(hops[-1])
    return entries == {o.required_link}


def exhaustive_plan_search(
    t: Topology, dest: int, objectives: list[Objective], budget: Budget
) -> tuple[bool, tuple | None]:
    """Try every action set in the bounded space; return (satisfiable,
    minimum cost).  Objectives are judged by `objective_holds`."""
    atoms = _build_atoms(t, dest, objectives)
    best_cost: tuple | None = None
    found = False
    for size in range(0, budget.max_actions + 1):
        for combo in itertools.combinations(atoms, size):
            te = te_config_from_actions(t, dest, combo)
            if te is None:
                continue
            try:
                state = propagate_to_convergence(t, te)
            except OscillationError:
                continue
            if all(objective_holds(state, t, dest, o) for o in objectives):
                found = True
                cost = plan_cost(t, dest, combo)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
    return found, best_cost


def instance_is_plannable(t: Topology, dest: int, objectives: list[Objective]) -> bool:
    try:
        validate_objectives(t, dest, objectives)
    except PlanningError:
        return False
    return True
