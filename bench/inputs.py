"""Seeded input generators for the benchmark workloads.

Kept here, apart from the test suite's generators, so that edits to the tests
cannot shift what the benchmark measures.  Every generator takes the freshly
imported `bgpsteer` package as `bg` and builds inputs through its public API
only; the caller re-imports the package for each timed set-up.

Inputs come from fixed pools: pool entry `i` is generated from its own string
seed, so it is identical on every machine and Python build, and the
reference table can hold a digest for every entry.  A run's `--seed` only
chooses which entries it uses.
"""

from __future__ import annotations

import random

# sim-layered: one graph per size class per run, chosen among the size's
# pool.  The pool holds the first LAYERED_POOL variants (of LAYERED_CANDIDATES)
# that converge in the round count most common at that size, so that every
# seed's graphs cost about the same (see reference.json).
LAYERED_SIZES = (50, 75, 100, 125)
LAYERED_CANDIDATES = 16
LAYERED_POOL = 8

# plan-random: 1000 instances per run, one from each stratum of four pool
# entries; strata group entries of similar cost (see reference.json).
PLAN_POOL = 4000
PLAN_STRATUM = 4
PLAN_BUDGET = 2


def _community(bg, asn: int, low: int):
    return bg.Community(asn % 0xFFFF, low)


# ---------------------------------------------------------------------------
# Layered AS graphs
# ---------------------------------------------------------------------------


def layered_graph(bg, size: int, variant: int):
    """A tier-1 clique, a mid tier of transit ASes (some carrying community
    catalogs), and stubs that each originate one /24.  A few stubs advertise
    selectively or attach a provider community.  Customer routes keep the
    highest LP (catalog LPs are 120 or 250), so the graph satisfies the
    Gao-Rexford conditions and converges."""
    rng = random.Random(f"sim-layered/{size}/{variant}")
    n_top = max(3, round(size * 0.06))
    n_mid = round(size * 0.3)
    asns = rng.sample(range(1, 64000), size)
    top, mid, stubs = asns[:n_top], asns[n_top:n_top + n_mid], asns[n_top + n_mid:]

    links: list = []
    pairs: set[frozenset[int]] = set()

    def link(a: int, b: int, customer: int | None) -> str:
        link_id = f"L{len(links) + 1}"
        links.append(bg.Link(link_id, a, b, customer))
        pairs.add(frozenset((a, b)))
        return link_id

    for i, a in enumerate(top):
        for b in top[i + 1:]:
            link(a, b, None)
    for i, m in enumerate(mid):
        for p in rng.sample(top, rng.randint(1, 2)):
            link(m, p, m)
        if i and rng.random() < 0.3:
            p = rng.choice(mid[:i])  # earlier mids only: the hierarchy stays acyclic
            if frozenset((m, p)) not in pairs:
                link(m, p, m)
    peer_p = 2.0 / max(1, n_mid)
    for i, a in enumerate(mid):
        for b in mid[i + 1:]:
            if frozenset((a, b)) not in pairs and rng.random() < peer_p:
                link(a, b, None)

    homes: dict[int, list[tuple[str, int]]] = {}
    for s in stubs:
        pool = mid if rng.random() < 0.85 else top
        chosen = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
        homes[s] = [(link(s, p, s), p) for p in chosen]
        if rng.random() < 0.1:
            p = chosen[0]
            homes[s].append((link(s, p, s), p))  # second circuit to one provider

    roles = {a: "transit" for a in top + mid}
    roles.update({s: "stub" for s in stubs})
    originations = {
        s: frozenset({bg.Prefix((10 << 24) | (k << 8), 24)}) for k, s in enumerate(stubs)
    }

    neighbors: dict[int, list[int]] = {a: [] for a in asns}
    for l in links:
        neighbors[l.a].append(l.b)
        neighbors[l.b].append(l.a)
    catalogs = {}
    for m in mid:
        if rng.random() >= 0.4:
            continue
        low = 10
        lp_rules, prepend_rules, suppress_rules = {}, {}, {}
        for lp in rng.sample([120, 250], rng.randint(0, 2)):
            lp_rules[_community(bg, m, low)] = lp
            low += 1
        for target in rng.sample(sorted(set(neighbors[m])), min(2, len(set(neighbors[m])))):
            prepend_rules[_community(bg, m, low)] = (bg.PeerSelector.specific(target), rng.randint(1, 3))
            low += 1
        if rng.random() < 0.5:
            prepend_rules[_community(bg, m, low)] = (bg.PeerSelector.all_upstreams(), rng.randint(1, 3))
            low += 1
        if rng.random() < 0.5:
            suppress_rules[_community(bg, m, low)] = bg.PeerSelector.all_upstreams()
            low += 1
        catalogs[m] = bg.PolicyCatalog(m, lp_rules, suppress_rules, prepend_rules, {})

    ads = []
    for s in stubs:
        (prefix,) = originations[s]
        draw = rng.random()
        if draw < 0.1 and len(homes[s]) >= 2:
            link_id, _p = rng.choice(homes[s])  # selective advertisement
            ads.append(bg.Advertisement(s, prefix, link_id))
        elif draw < 0.25:
            tagged = [(lid, p) for lid, p in homes[s] if p in catalogs]
            if not tagged:
                continue
            tag_link, provider = rng.choice(tagged)
            community = rng.choice(sorted(catalogs[provider].communities(), key=lambda c: c.sort_key()))
            for link_id, _p in homes[s]:
                comms = frozenset({community}) if link_id == tag_link else frozenset()
                ads.append(bg.Advertisement(s, prefix, link_id, comms))
    ads.sort(key=lambda ad: (ad.origin, ad.prefix.sort_key(), ad.link_id))

    topology = bg.Topology(roles, tuple(sorted(links, key=lambda l: l.id)), originations, catalogs)
    return bg.Scenario(topology, bg.TeConfig(tuple(ads), {}))


def layered_choice(seed: int, pools: dict[str, list[int]]) -> list[tuple[int, int]]:
    """The (size, variant) graphs a run with this seed simulates."""
    rng = random.Random(f"sim-layered-run/{seed}")
    return [(size, rng.choice(pools[str(size)])) for size in LAYERED_SIZES]


# ---------------------------------------------------------------------------
# Five-AS planning instances
# ---------------------------------------------------------------------------

PLAN_PREFIXES = ("10.1.0.0/16", "10.2.0.0/16")


def planning_instance(bg, index: int):
    """A stub destination dual-homed over links l1/l2 (to one provider or
    two), up to two source stubs and an optional upper transit AS; both
    providers carry a catalog with per-neighbor prepend communities and an
    LP community.  Objectives either split one prefix by source across the
    two links or pin one or two random flows.  Returns
    (topology, dest, objectives)."""
    rng = random.Random(f"plan-random/{index}")
    dest, p1, p2, s1, extra = rng.sample(range(100, 60000), 5)
    shared_provider = rng.random() < 0.25
    spare = [extra]
    if shared_provider:
        spare.append(p2)
        p2 = p1
    s2 = spare.pop() if rng.random() < 0.7 else None
    upper = spare.pop() if spare and rng.random() < 0.5 else None

    links = [bg.Link("l1", dest, p1, dest), bg.Link("l2", dest, p2, dest)]
    roles = {dest: "stub", p1: "transit", p2: "transit", s1: "stub"}

    def link(a: int, b: int, customer: int | None) -> None:
        links.append(bg.Link(f"l{len(links) + 1}", a, b, customer))

    if not shared_provider and rng.random() < 0.3:
        link(p1, p2, p1)
    if upper is not None:
        roles[upper] = "transit"
        link(p1, upper, p1)
        if not shared_provider and rng.random() < 0.6:
            link(p2, upper, p2)
    homes = sorted({p1, p2} | ({upper} if upper is not None else set()))
    sources = [s1] if s2 is None else [s1, s2]
    for src in sources:
        roles[src] = "stub"
        for h in rng.sample(homes, min(len(homes), rng.randint(1, 2))):
            link(src, h, src)

    prefixes = [bg.Prefix.parse(p) for p in PLAN_PREFIXES[: 1 if rng.random() < 0.7 else 2]]
    catalogs = {}
    for provider in sorted({p1, p2}):
        peers = sorted({l.other(provider) for l in links if provider in l.endpoints()} - {dest})
        prepend = {
            _community(bg, provider, 11 + k): (bg.PeerSelector.specific(n), 2)
            for k, n in enumerate(peers)
        }
        catalogs[provider] = bg.PolicyCatalog(provider, {_community(bg, provider, 50): 50}, {}, prepend, {})
    topology = bg.Topology(roles, tuple(links), {dest: frozenset(prefixes)}, catalogs)

    def objective(src: int | None, prefix, link_id: str):
        return bg.Objective(bg.Flow(None, src, prefix, dest), link_id)

    if s2 is not None and rng.random() < 0.45:
        prefix = rng.choice(prefixes)
        first, second = rng.choice((("l1", "l2"), ("l2", "l1")))
        objectives = [objective(s1, prefix, first), objective(s2, prefix, second)]
    else:
        objectives = []
        for _ in range(rng.randint(1, 2)):
            src, prefix, link_id = rng.choice(sources + [None]), rng.choice(prefixes), rng.choice(("l1", "l2"))
            if any(_contradicts(o, src, prefix, link_id) for o in objectives):
                continue  # the planner rejects such pairs as input errors
            objectives.append(objective(src, prefix, link_id))
    return topology, dest, objectives


def _contradicts(o, src: int | None, prefix, link_id: str) -> bool:
    """True when `o` pins traffic overlapping (src, prefix) to another link."""
    overlap = src is None or o.flow.src_asn is None or o.flow.src_asn == src
    return o.flow.dst_prefix == prefix and o.required_link != link_id and overlap


def plan_choice(seed: int, strata: list[list[int]]) -> list[int]:
    """The pool entries a run with this seed plans: one per stratum."""
    rng = random.Random(f"plan-random-run/{seed}")
    return [rng.choice(stratum) for stratum in strata]
