import copy
import gc
import pickle
import random
from dataclasses import replace
from functools import cmp_to_key
from pathlib import Path

import pytest

import gen
from bgpsteer import (
    Advertisement,
    Community,
    Link,
    OscillationError,
    Prefix,
    TeConfig,
    Topology,
    parse_scenario,
    propagate_to_convergence,
)
from bgpsteer.engine import MAX_PREPEND, ConvergedState
from bgpsteer.policies import egress_apply, egress_times, ingress_transform
from bgpsteer.routes import Route, compare_routes, default_local_pref, export_permitted, local_route
from bgpsteer.topology import LOCAL, Rel

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")

DUAL = open("scenarios/dualprovider_baseline.scn").read()


def run(text):
    s = parse_scenario(text)
    return s, propagate_to_convergence(s.topology, s.te_config)


def test_dualprovider_baseline_paths():
    _, state = run(DUAL)
    assert state.selected(65101, P1).as_path == (100, 65001)
    assert state.selected(65102, P1).as_path == (200, 65001)
    assert state.selected(65101, P2).as_path == (100, 65001)
    assert state.selected(65102, P2).as_path == (200, 65001)


def test_dualprovider_prepend_flips_s1_to_the_other_provider():
    s, state = run(open("scenarios/dualprovider_prepend_p2.scn").read())
    assert state.selected(65101, P2).as_path == (400, 200, 65001)
    assert state.selected(65101, P1).as_path == (100, 65001)
    candidates = {r.as_path for r in state.candidates(65101, P2)}
    assert (100, 100, 100, 65001) in candidates  # the prepended, rejected one


def test_zero_originations_fixed_point_in_one_round():
    _, state = run("as 1 stub\nas 2 transit\nlink l1 1 2 c2p\n")
    assert state.rounds_used == 1
    assert all(not by for by in state.loc_rib.values())


def test_local_routes_present_at_origin():
    _, state = run("as 1 stub\nas 2 transit\nlink l1 1 2 c2p\noriginate 1 10.1.0.0/16\n")
    route = state.loc_rib[1][P1]
    assert route.learned_on == LOCAL
    assert route.as_path == ()


def test_loop_freedom():
    _, state = run(DUAL)
    for asn, by_prefix in state.loc_rib.items():
        for route in by_prefix.values():
            assert asn not in route.as_path


def test_oscillation_detected_with_changing_pairs():
    s = parse_scenario(open("scenarios/oscillate.scn").read())
    with pytest.raises(OscillationError) as err:
        propagate_to_convergence(s.topology, s.te_config)
    assert err.value.changing == ((100, P1), (200, P1))


def test_max_rounds_override():
    s = parse_scenario(DUAL)
    with pytest.raises(OscillationError):
        propagate_to_convergence(s.topology, s.te_config, max_rounds=1)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The caller's cyclic-GC setting for one test; the suite's is restored."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_a_run_pauses_the_gc_and_restores_the_callers_setting(caller_gc, monkeypatch):
    s = parse_scenario(DUAL)
    during, traced = [], []

    def ranking(a, b):
        during.append(gc.isenabled())
        return compare_routes(a, b)

    monkeypatch.setattr("bgpsteer.engine.compare_routes", ranking)
    state = propagate_to_convergence(s.topology, s.te_config, trace=lambda st: traced.append(gc.isenabled()))
    assert gc.isenabled() is caller_gc
    assert during and not any(during)
    assert traced == [caller_gc] * state.rounds_used


def test_an_oscillating_run_restores_the_callers_gc_setting(caller_gc):
    s = parse_scenario(open("scenarios/oscillate.scn").read())
    traced = []
    with pytest.raises(OscillationError):
        propagate_to_convergence(s.topology, s.te_config, trace=lambda st: traced.append(gc.isenabled()))
    assert gc.isenabled() is caller_gc
    assert traced == [caller_gc] * 13


def test_a_raising_trace_restores_the_callers_gc_setting(caller_gc):
    s = parse_scenario(DUAL)
    traced = []

    class Stop(Exception):
        pass

    def trace(state):
        traced.append(gc.isenabled())
        raise Stop

    with pytest.raises(Stop):
        propagate_to_convergence(s.topology, s.te_config, trace=trace)
    assert gc.isenabled() is caller_gc
    assert traced == [caller_gc]


def test_a_run_leaves_no_reference_cycles():
    # The pause is safe only because a run's objects form no cycles, so
    # nothing it drops waits for the cyclic GC.
    rng = random.Random(16)
    cases = [parse_scenario(p.read_text()) for p in CONVERGING_GOLDENS]
    cases = [(s.topology, s.te_config) for s in cases]
    for _ in range(40):
        t = gen.with_rule_facts(rng, gen.rand_topology(rng, with_catalogs=True))
        cases.append((t, gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # With the GC off, everything a run allocates stays in the youngest
        # generation, so collecting that one finds any cycle the run dropped.
        gc.collect()
        for t, te in cases:
            t.validation, t.sessions  # cached on the topology, which outlives the run
            gc.collect(0)
            state = propagate_to_convergence(t, te, trace=lambda st: st.dump())
            state.dump()
            del state
            assert gc.collect(0) == 0
    finally:
        if was_enabled:
            gc.enable()


def test_determinism_bit_identical():
    s = parse_scenario(DUAL)
    a = propagate_to_convergence(s.topology, s.te_config)
    b = propagate_to_convergence(s.topology, s.te_config)
    assert a == b
    assert a.dump() == b.dump()
    assert a.rounds_used == b.rounds_used


def test_fixed_point_stable_under_extra_round():
    s = parse_scenario(DUAL)
    a = propagate_to_convergence(s.topology, s.te_config)
    b = propagate_to_convergence(s.topology, s.te_config, max_rounds=a.rounds_used + 1)
    assert a.loc_rib == b.loc_rib and a.adj_rib_in == b.adj_rib_in


def test_trace_callback_sees_each_round():
    s = parse_scenario(DUAL)
    rounds = []
    propagate_to_convergence(s.topology, s.te_config, trace=lambda st: rounds.append(st.rounds_used))
    assert rounds == list(range(1, rounds[-1] + 1))


def test_selected_is_maximum_of_candidates():
    from bgpsteer.routes import best_of

    _, state = run(DUAL)
    for asn, by_prefix in state.loc_rib.items():
        for prefix, route in by_prefix.items():
            cands = state.candidates(asn, prefix)
            if route.learned_on != LOCAL and cands:
                assert route == best_of(cands)


def test_best_route_longest_prefix_match():
    s, state = run(open("scenarios/failover_morespecific.scn").read())
    sub = Prefix.parse("10.1.128.0/17")
    inner = Prefix.parse("10.1.129.0/24")
    assert state.best_route(65101, inner).prefix == sub
    assert state.best_route(65101, Prefix.parse("10.1.1.0/24")).prefix == P1
    assert state.best_route(65101, sub).prefix == sub  # exact entry wins
    assert state.best_route(65101, Prefix.parse("192.168.0.0/16")) is None
    with pytest.raises(KeyError):
        state.best_route(4242, P1)


def test_link_id_local_is_reserved():
    from bgpsteer import ScenarioError

    with pytest.raises(ScenarioError):
        parse_scenario("as 1 stub\nas 2 stub\nlink local 1 2 p2p\n")


def test_med_basic_golden():
    _, state = run(open("scenarios/med_basic.scn").read())
    assert state.loc_rib[100][P1].learned_on == "l1"
    assert state.loc_rib[100][P1].med == 10


def test_med_ignored_across_neighbors_golden():
    _, state = run(open("scenarios/med_scope.scn").read())
    chosen = state.selected(65101, P1)
    assert chosen.as_path == (100, 65001)  # lower first-hop ASN, despite med 20
    assert chosen.med == 20


def test_dump_is_sorted_and_stable():
    _, state = run(DUAL)
    dump = state.dump()
    assert dump.startswith("rounds ")
    as_lines = [l for l in dump.splitlines() if l.startswith("as ")]
    assert as_lines == sorted(as_lines, key=lambda l: int(l.split()[1]))


def test_validation_gate():
    from bgpsteer import Link, Topology, TopologyError

    t = Topology({1: "stub"}, (Link("l1", 1, 2, 1),), {}, {})
    with pytest.raises(TopologyError):
        propagate_to_convergence(t, TeConfig())


def test_te_config_validation_errors():
    s = parse_scenario(DUAL)
    from bgpsteer import Advertisement

    bad = TeConfig((Advertisement(65001, Prefix.parse("192.168.0.0/16"), "l1"),), {})
    with pytest.raises(ValueError):
        propagate_to_convergence(s.topology, bad)


def test_te_config_rejects_a_withheld_prefix_its_origin_does_not_originate():
    s = parse_scenario(DUAL)
    propagate_to_convergence(s.topology, TeConfig(withheld=frozenset({(65001, P1)})))
    for pair in ((65001, Prefix.parse("10.1.0.0/17")), (100, P1), (4242, P1)):
        with pytest.raises(ValueError, match="does not originate"):
            propagate_to_convergence(s.topology, TeConfig(withheld=frozenset({pair})))


def test_oracle_equivalence_sample():
    rng = random.Random(101)
    for _ in range(200):
        t = gen.rand_topology(rng)
        te = gen.rand_te(rng, t)
        state = propagate_to_convergence(t, te)
        assert state.loc_rib == gen.oracle_loc_ribs(t, te)


def test_valley_free_sample():
    rng = random.Random(103)
    for _ in range(150):
        t = gen.rand_topology(rng)
        te = gen.rand_te(rng, t)
        state = propagate_to_convergence(t, te)
        for asn, by_prefix in state.loc_rib.items():
            for route in by_prefix.values():
                if route.learned_on == LOCAL:
                    continue
                assert gen.is_valley_free(t, asn, route.as_path)


CONVERGING_GOLDENS = sorted(
    p for p in Path("scenarios").glob("*.scn") if p.name != "oscillate.scn"
)


@pytest.mark.parametrize("max_rounds", [None, 1, 2, 3, 4, 7, 12, 13])
def test_oscillation_rounds_and_changing_pairs_pinned(max_rounds):
    s = parse_scenario(open("scenarios/oscillate.scn").read())
    with pytest.raises(OscillationError) as err:
        propagate_to_convergence(s.topology, s.te_config, max_rounds=max_rounds)
    # default bound: 2 * |ASes| + MAX_PREPEND + 4 = 13 for three ASes
    assert err.value.rounds == (13 if max_rounds is None else max_rounds)
    assert err.value.changing == ((100, P1), (200, P1))


def test_oscillation_trace_alternates_between_two_states():
    s = parse_scenario(open("scenarios/oscillate.scn").read())
    dumps = []
    with pytest.raises(OscillationError):
        propagate_to_convergence(s.topology, s.te_config, trace=lambda st: dumps.append((st.rounds_used, st.dump())))
    assert [n for n, _ in dumps] == list(range(1, 14))
    assert all(d.startswith(f"rounds {n}\n") for n, d in dumps)
    bodies = [d.split("\n", 1)[1] for _, d in dumps]
    assert bodies[0] != bodies[1]
    assert all(body == bodies[(n - 1) % 2] for n, body in enumerate(bodies, start=1))
    # odd rounds: both providers hold only the customer route; even rounds:
    # each prefers the peer's route
    assert "best path=65001 lp=10 med=- from=l1" in bodies[0]
    assert "best path=200,65001 lp=100 med=- from=l3" in bodies[1]


@pytest.mark.parametrize("path", CONVERGING_GOLDENS, ids=lambda p: p.stem)
def test_trace_called_once_per_round_and_ends_at_the_fixed_point(path):
    s = parse_scenario(path.read_text())
    dumps = []
    state = propagate_to_convergence(s.topology, s.te_config, trace=lambda st: dumps.append((st.rounds_used, st.dump())))
    assert [n for n, _ in dumps] == list(range(1, state.rounds_used + 1))
    assert dumps[-1][1] == state.dump()


def _containment_groups(prefixes):
    """Connected components of the containment relation."""
    groups = []
    for p in sorted(prefixes, key=Prefix.sort_key):
        merged, rest = {p}, []
        for g in groups:
            if any(p.contains(q) or q.contains(p) for q in g):
                merged |= g
            else:
                rest.append(g)
        groups = rest + [merged]
    return [frozenset(g) for g in groups]


def _filtered(ribs, group):
    return {asn: {p: v for p, v in rib.items() if p in group} for asn, rib in ribs.items()}


def _check_restricted_runs(t, te):
    """Each containment group's restricted run against the full run; returns
    whether the full run oscillates."""
    prefixes = {p for ps in t.originations.values() for p in ps}
    prefixes |= {ad.prefix for ad in te.advertisements}
    groups = _containment_groups(prefixes)
    try:
        full = propagate_to_convergence(t, te)
    except OscillationError as exc:
        changing = []
        for g in groups:
            try:
                propagate_to_convergence(t, te, prefixes=g)
            except OscillationError as part:
                assert part.rounds == exc.rounds
                assert part.changing == tuple(pair for pair in exc.changing if pair[1] in g)
                changing += part.changing
        assert sorted(changing, key=lambda ap: (ap[0], ap[1].sort_key())) == list(exc.changing)
        return True
    rounds = []
    for g in groups:
        part = propagate_to_convergence(t, te, prefixes=g)
        assert part.loc_rib == _filtered(full.loc_rib, g)
        assert part.adj_rib_in == _filtered(full.adj_rib_in, g)
        rounds.append(part.rounds_used)
    assert max(rounds, default=1) == full.rounds_used
    return False


@pytest.mark.parametrize("path", CONVERGING_GOLDENS, ids=lambda p: p.stem)
def test_restricted_runs_match_the_full_run_on_goldens(path):
    s = parse_scenario(path.read_text())
    assert not _check_restricted_runs(s.topology, s.te_config)


def test_restricted_run_of_the_oscillating_group_reports_its_pairs():
    s = parse_scenario(open("scenarios/oscillate.scn").read())
    assert _check_restricted_runs(s.topology, s.te_config)
    with pytest.raises(OscillationError) as err:
        propagate_to_convergence(s.topology, s.te_config, prefixes=[P1])
    assert err.value.rounds == 13
    assert err.value.changing == ((100, P1), (200, P1))
    # a group with no prefix of the run converges at once
    assert propagate_to_convergence(s.topology, s.te_config, prefixes=[P2]).rounds_used == 1


def test_restricted_runs_match_the_full_run_on_random_cases():
    rng = random.Random(211)
    more_specific = lp_overrides = oscillating = 0
    for _ in range(300):
        t = gen.rand_topology(rng, with_catalogs=rng.random() < 0.5)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        originated = {p for ps in t.originations.values() for p in ps}
        more_specific += any(ad.prefix not in originated for ad in te.advertisements)
        lp_overrides += bool(te.lp_overrides)
        oscillating += _check_restricted_runs(t, te)
    assert more_specific >= 10 and lp_overrides >= 50 and oscillating >= 1


# ---------------------------------------------------------------------------
# Reference round loop: every AS recomputes everything every round
# ---------------------------------------------------------------------------


def _reference_run(t, te, *, prefixes=None, max_rounds=None):
    """The synchronous round loop with no change tracking: every round, every
    AS rebuilds its whole Adj-RIB-In from what each up-link neighbor exports
    out of its previous-round Loc-RIB, then re-selects every prefix.  Returns
    the per-round dumps and the converged state or the OscillationError the
    engine must raise."""
    # The scenario format's rule: a prefix with no `advertise` line goes out
    # plainly on every up link of its origin; one with any (or withheld)
    # goes out on exactly its listed links, with their MED and communities.
    # Each originated or advertised prefix has a local route at its origin.
    advertised = {(ad.origin, ad.prefix, ad.link_id): ad for ad in te.advertisements}
    explicit = {key[:2] for key in advertised} | set(te.withheld)
    local = {asn: {} for asn in t.roles}
    for origin, p in [*((o, p) for o, ps in t.originations.items() for p in ps), *explicit]:
        if prefixes is None or p in prefixes:
            local[origin].setdefault(p, local_route(p, origin))
    rank = cmp_to_key(compare_routes)

    def receive(receiver, link, sender, wire):
        if receiver in wire.as_path:
            return None
        sender_rel = link.rel_from(receiver)
        catalog = t.catalogs.get(receiver)
        applies = catalog is not None and sender_rel is Rel.CUSTOMER
        if applies and catalog.drops_community_updates and wire.communities:
            return None
        lp = te.lp_overrides.get((receiver, sender), default_local_pref(sender_rel))
        installed = Route(
            wire.prefix, wire.as_path, lp, wire.med, wire.communities, link.id, wire.origin_as
        )
        return ingress_transform(catalog, installed) if applies else installed

    adj = {asn: {} for asn in t.roles}
    loc = {asn: dict(entries) for asn, entries in local.items()}
    bound = max_rounds or 2 * len(t.roles) + MAX_PREPEND + 4
    dumps = []
    for round_no in range(1, bound + 1):
        new_adj = {asn: {} for asn in t.roles}
        for receiver in t.roles:
            for link in t.up_links_of(receiver):
                sender = link.other(receiver)
                for prefix, route in loc[sender].items():
                    if route.learned_on == LOCAL:
                        ad = advertised.get((sender, prefix, link.id))
                        if ad is None and (sender, prefix) in explicit:
                            continue
                        med, communities = (None, frozenset()) if ad is None else (ad.med, ad.communities)
                        wire = Route(prefix, (sender,), 0, med, communities, LOCAL, sender)
                    else:
                        learned_rel = t.link_by_id(route.learned_on).rel_from(sender)
                        if not export_permitted(learned_rel, link.rel_from(sender)):
                            continue
                        catalog = t.catalogs.get(sender)
                        times = 1
                        if catalog is not None and learned_rel is Rel.CUSTOMER:
                            times = egress_times(catalog, route, t.neighbor_rels(sender)).get(receiver, 1)
                        if times is None:
                            continue
                        wire = egress_apply(route, sender, times, catalog)
                    installed = receive(receiver, link, sender, wire)
                    if installed is not None:
                        new_adj[receiver].setdefault(prefix, {})[link.id] = installed
        new_loc = {}
        for asn in t.roles:
            table = {}
            for prefix in set(local[asn]) | set(new_adj[asn]):
                cands = list(new_adj[asn].get(prefix, {}).values())
                cands += [local[asn][prefix]] if prefix in local[asn] else []
                table[prefix] = min(cands, key=rank)
            new_loc[asn] = table
        dumps.append(ConvergedState(new_adj, new_loc, round_no).dump())
        if new_adj == adj and new_loc == loc:
            return dumps, ConvergedState(new_adj, new_loc, round_no)
        pairs = {
            (asn, p)
            for asn in t.roles
            for old, new in ((adj[asn], new_adj[asn]), (loc[asn], new_loc[asn]))
            for p in set(old) | set(new)
            if old.get(p) != new.get(p)
        }
        adj, loc = new_adj, new_loc
    changing = tuple(sorted(pairs, key=lambda ap: (ap[0], ap[1].sort_key())))
    return dumps, OscillationError(changing, bound)


def _check_against_reference(t, te, *, prefixes=None, max_rounds=None):
    """The engine against _reference_run: rounds, every per-round trace,
    the final dump and RIBs, or the oscillation report.  Returns the
    reference outcome."""
    want_dumps, want = _reference_run(t, te, prefixes=prefixes, max_rounds=max_rounds)
    dumps = []
    try:
        got = propagate_to_convergence(
            t, te, prefixes=prefixes, max_rounds=max_rounds, trace=lambda st: dumps.append(st.dump())
        )
    except OscillationError as exc:
        got = exc
    assert dumps == want_dumps
    assert type(got) is type(want)
    if isinstance(want, OscillationError):
        assert (got.rounds, got.changing) == (want.rounds, want.changing)
    else:
        assert got.rounds_used == want.rounds_used
        assert got.dump() == want.dump()
        assert got.loc_rib == want.loc_rib and got.adj_rib_in == want.adj_rib_in
        _check_installed_routes(got)
    return want


def _check_installed_routes(state):
    """Every Adj-RIB-In and Loc-RIB entry is a `Route` that passes the
    checking constructor unchanged: the engine's trusted `tuple.__new__`
    path builds only valid routes."""
    for rib in state.adj_rib_in.values():
        for by_link in rib.values():
            for r in by_link.values():
                assert type(r) is Route and Route(*r) == r
    for rib in state.loc_rib.values():
        for r in rib.values():
            assert type(r) is Route and Route(*r) == r


def _with_disagree_gadget(rng, t, te):
    """Two providers of an origin peer and each prefer the other's routes
    (LP 300), as in oscillate.scn, which makes the run likely to oscillate."""
    candidates = []
    for origin in sorted(t.originations):
        providers = sorted({l.other(origin) for l in t.up_links_of(origin) if l.customer == origin})
        candidates += [(a, b) for i, a in enumerate(providers) for b in providers[i + 1:]]
    if not candidates:
        return t, te
    a, b = rng.choice(candidates)
    links = t.links + (Link(f"l{len(t.links) + 1}", a, b, None),)
    overrides = {**te.lp_overrides, (a, b): 300, (b, a): 300}
    return replace(t, links=links), TeConfig(te.advertisements, overrides)


@pytest.mark.parametrize("path", sorted(Path("scenarios").glob("*.scn")), ids=lambda p: p.stem)
def test_engine_matches_the_reference_loop_on_goldens(path):
    s = parse_scenario(path.read_text())
    _check_against_reference(s.topology, s.te_config)


def test_engine_matches_the_reference_loop_on_random_cases():
    rng = random.Random(307)
    oscillating = truncated = restricted = more_specific = 0
    for _ in range(250):
        t = gen.rand_topology(rng, with_catalogs=rng.random() < 0.6)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        if rng.random() < 0.3:
            t, te = _with_disagree_gadget(rng, t, te)
        originated = {p for ps in t.originations.values() for p in ps}
        more_specific += any(ad.prefix not in originated for ad in te.advertisements)
        want = _check_against_reference(t, te)
        if isinstance(want, OscillationError):
            oscillating += 1
        elif want.rounds_used > 1 and rng.random() < 0.3:
            _check_against_reference(t, te, max_rounds=rng.randrange(1, want.rounds_used))
            truncated += 1
        prefixes = sorted(originated | {ad.prefix for ad in te.advertisements}, key=Prefix.sort_key)
        if prefixes and rng.random() < 0.4:
            _check_against_reference(t, te, prefixes=rng.sample(prefixes, rng.randint(1, len(prefixes))))
            restricted += 1
    assert oscillating >= 5 and truncated >= 30 and restricted >= 50 and more_specific >= 20


def test_engine_matches_the_reference_loop_on_compiled_rule_facts():
    """Random cases with the facts `Topology.sessions` compiles that
    rand_topology never draws: a p2p link parallel to a c2p link, catalogs
    that drop community updates, and region selectors."""
    rng = random.Random(409)
    parallel = dropping = regional = 0
    for _ in range(300):
        t = gen.with_rule_facts(rng, gen.rand_topology(rng, with_catalogs=rng.random() < 0.5))
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        up = [l for l in t.links if l.up]
        parallel += any(
            p.customer is None and c.customer is not None and {p.a, p.b} == {c.a, c.b}
            for p in up
            for c in up
        )
        tagged = {c for ad in te.advertisements for c in ad.communities}
        dropping += any(
            ad.communities
            and link.up
            and link.customer == ad.origin
            and getattr(t.catalogs.get(link.other(ad.origin)), "drops_community_updates", False)
            for ad in te.advertisements
            for link in [t.link_by_id(ad.link_id)]
        )
        regional += any(
            c in tagged
            for cat in t.catalogs.values()
            for c, sel in [*cat.suppress_rules.items(), *((c, s) for c, (s, _) in cat.prepend_rules.items())]
            if sel.kind == "region"
        )
        _check_against_reference(t, te)
    assert parallel >= 120 and dropping >= 20 and regional >= 50


def test_engine_matches_the_reference_loop_with_withheld_prefixes():
    """Random cases that withhold some originated prefixes, as the planner
    does when an action set withholds a prefix on every link: one with no
    `advertise` line is announced nowhere, one with some only on those."""
    rng = random.Random(503)
    silenced = listed = restricted = 0
    for _ in range(150):
        t = gen.rand_topology(rng, with_catalogs=rng.random() < 0.5)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        pairs = [(o, p) for o, ps in t.originations.items() for p in sorted(ps)]
        withheld = frozenset(pair for pair in pairs if rng.random() < 0.4)
        te = TeConfig(te.advertisements, te.lp_overrides, withheld)
        ads = {(ad.origin, ad.prefix) for ad in te.advertisements}
        silenced += any(pair not in ads and t.up_links_of(pair[0]) for pair in withheld)
        listed += any(pair in ads for pair in withheld)
        _check_against_reference(t, te)
        if withheld and rng.random() < 0.5:
            prefixes = sorted({p for _o, p in withheld} | {p for _o, p in ads}, key=Prefix.sort_key)
            _check_against_reference(t, te, prefixes=rng.sample(prefixes, rng.randint(1, len(prefixes))))
            restricted += 1
    assert silenced >= 50 and listed >= 30 and restricted >= 30


def _outcome(t, te):
    """A run's dump, or its oscillation report."""
    try:
        return propagate_to_convergence(t, te).dump()
    except OscillationError as exc:
        return (exc.rounds, exc.changing)


def _fresh(t):
    """An equal topology with nothing compiled yet."""
    return Topology(dict(t.roles), t.links, dict(t.originations), dict(t.catalogs))


def _random_overrides(rng, t):
    pairs = sorted({(a, l.other(a)) for l in t.links if l.up for a in l.endpoints()})
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
    return {pair: rng.choice([20, 80, 150, 400]) for pair in chosen}


def test_compiled_sessions_are_per_topology_and_lp_overrides_per_call():
    """One topology object runs with LP overrides, without, with others and
    with the first again; every run equals a run on a fresh, equal topology.
    Random topologies all name their links l1, l2, ..., so running them
    interleaved also shows that no compiled entry crosses topologies."""
    rng = random.Random(419)
    cases = []
    for _ in range(60):
        t = gen.rand_topology(rng, with_catalogs=rng.random() < 0.5)
        te = gen.rand_te(rng, t, with_communities=True)
        sequence = [_random_overrides(rng, t), {}, _random_overrides(rng, t)]
        cases.append((t, [TeConfig(te.advertisements, o) for o in sequence + sequence[:1]]))
    # Two topologies whose l1 and l2 join different ASes.
    roles = {1: "stub", 2: "transit", 3: "transit"}
    p1 = {1: frozenset({P1})}
    for links in (
        (Link("l1", 1, 2, 1), Link("l2", 1, 3, 1), Link("l3", 2, 3, None)),
        (Link("l1", 1, 3, 1), Link("l2", 2, 3, None), Link("l3", 1, 2, 1)),
    ):
        t = Topology(roles, links, p1)
        cases.append((t, [TeConfig((), o) for o in ({(2, 1): 20}, {}, {(3, 1): 20}, {(2, 1): 20})]))
    overridden = 0
    for step in range(4):
        for t, tes in cases:
            assert _outcome(t, tes[step]) == _outcome(_fresh(t), tes[step])
            overridden += step == 0 and _outcome(_fresh(t), tes[0]) != _outcome(_fresh(t), tes[1])
    assert overridden >= 30


def test_a_displaced_local_entry_is_withdrawn_where_it_was_announced():
    """AS 1 advertises a more-specific that AS 2 originates, and prefers AS
    2's route (LP override above the local LP).  Its peer-learned route may
    not go to its provider, so the provider loses AS 1's announcement."""
    sub = Prefix.parse("10.1.128.0/17")
    t = Topology(
        {1: "stub", 2: "stub", 3: "transit"},
        (Link("l1", 1, 3, 1), Link("l2", 2, 3, 2), Link("l3", 1, 2, None)),
        {1: frozenset({P1}), 2: frozenset({sub})},
    )
    te = TeConfig((Advertisement(1, sub, "l1"),), {(1, 2): 2000})
    state = _check_against_reference(t, te)
    assert state.selected(1, sub).learned_on == "l3"
    assert set(state.adj_rib_in[3][sub]) == {"l2"}


def test_value_types_survive_pickle_and_deepcopy():
    r = Route(P1, (100, 65001), 200, 10, frozenset({Community(100, 50)}), "l1", 65001)
    for value in (P1, r):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back == value and type(back) is type(value)
            assert repr(back) == repr(value)


def test_converged_states_survive_pickle_and_deepcopy():
    converged = 0
    for path in sorted(Path("scenarios").glob("*.scn")):
        s = parse_scenario(path.read_text())
        try:
            state = propagate_to_convergence(s.topology, s.te_config)
        except OscillationError:
            continue
        converged += 1
        for back in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert back.dump() == state.dump(), path.name
            assert back.loc_rib == state.loc_rib and back.adj_rib_in == state.adj_rib_in
            _check_installed_routes(back)
    assert converged >= 19
