import random
from pathlib import Path

import pytest

from bgpsteer import (
    OscillationError,
    Flow,
    FlowClass,
    IngressMap,
    Prefix,
    classify,
    diff_ingress,
    ingress_map,
    parse_scenario,
    propagate_to_convergence,
    resolve_forwarding,
)
from bgpsteer.engine import ConvergedState
from bgpsteer.flows import UNREACHABLE, ForwardingTable
from bgpsteer.routes import Route, local_route
from bgpsteer.topology import LOCAL, Link, Topology

P1 = Prefix.parse("10.1.0.0/16")
P2 = Prefix.parse("10.2.0.0/16")
P1SUB = Prefix.parse("10.1.128.0/17")


def run(path):
    s = parse_scenario(open(path).read())
    return s, propagate_to_convergence(s.topology, s.te_config)


def test_classify():
    assert classify(Flow(None, None, P1, 65001)) is FlowClass.DESTINATION_PREFIX
    assert classify(Flow(None, 65101, P2, 65001)) is FlowClass.SOURCE_ASN
    assert classify(Flow(Prefix.parse("192.168.0.0/24"), 65101, P1, 65001)) is FlowClass.SOURCE_PREFIX


def test_classify_ignores_destination_fields():
    for p in (P1, P2, P1SUB):
        assert classify(Flow(None, None, p, 1)) is FlowClass.DESTINATION_PREFIX


def test_resolve_dualprovider_s1():
    s, state = run("scenarios/dualprovider_baseline.scn")
    assert resolve_forwarding(state, s.topology, 65101, P1) == ["l5", "l1"]
    assert resolve_forwarding(state, s.topology, 65102, P1) == ["l7", "l2"]


def test_resolve_at_origin_is_empty():
    s, state = run("scenarios/dualprovider_baseline.scn")
    assert resolve_forwarding(state, s.topology, 65001, P1) == []


def test_resolve_errors():
    s, state = run("scenarios/dualprovider_baseline.scn")
    with pytest.raises(KeyError):
        resolve_forwarding(state, s.topology, 4242, P1)
    with pytest.raises(ValueError):
        resolve_forwarding(state, s.topology, 65101, Prefix.parse("192.168.0.0/16"))


def test_more_specific_steers_and_fails_over():
    s, state = run("scenarios/failover_morespecific.scn")
    hops = resolve_forwarding(state, s.topology, 65101, P1SUB)
    assert hops[-1] == "l1"
    assert resolve_forwarding(state, s.topology, 65101, P1)[-1] in ("l1", "l2")

    s2, state2 = run("scenarios/failover_morespecific_l1down.scn")
    hops2 = resolve_forwarding(state2, s2.topology, 65101, P1SUB)
    assert hops2[-1] == "l2"  # falls back to the covering /16


def test_selective_advertisement_unreachable_when_link_dies():
    s, state = run("scenarios/failover_selective_l1down.scn")
    assert resolve_forwarding(state, s.topology, 65101, P1) is None
    m = ingress_map(state, s.topology, 65001)
    assert m.entries[(65101, P1)] == UNREACHABLE


def test_dualprovider_baseline_ingress_map():
    s, state = run("scenarios/dualprovider_baseline.scn")
    m = ingress_map(state, s.topology, 65001)
    expected = {
        (65101, P1): "l1",
        (65101, P2): "l1",
        (65102, P1): "l2",
        (65102, P2): "l2",
    }
    assert {k: v for k, v in m.entries.items() if k[0] in (65101, 65102)} == expected
    # keys cover every other AS crossed with both prefixes
    assert set(m.entries) == {(a, p) for a in s.topology.ases() if a != 65001 for p in (P1, P2)}


def test_single_homed_dest_single_link():
    text = (
        "as 1 stub\nas 2 transit\nas 3 stub\n"
        "link l1 1 2 c2p\nlink l2 3 2 c2p\noriginate 1 10.1.0.0/16\n"
    )
    s = parse_scenario(text)
    state = propagate_to_convergence(s.topology, s.te_config)
    m = ingress_map(state, s.topology, 1)
    assert set(m.entries.values()) == {"l1"}


def test_ingress_map_requires_originations():
    s, state = run("scenarios/dualprovider_baseline.scn")
    with pytest.raises(ValueError):
        ingress_map(state, s.topology, 65101)


def test_ingress_matches_resolve_for_every_entry():
    s, state = run("scenarios/deep_baseline.scn")
    m = ingress_map(state, s.topology, 65001)
    for (src, prefix), link in m.entries.items():
        hops = resolve_forwarding(state, s.topology, src, prefix)
        if link == UNREACHABLE:
            assert not hops
        else:
            assert hops[-1] == link
            assert len(set(hops)) == len(hops)  # acyclic


def test_ingress_csv_shape():
    s, state = run("scenarios/med_basic.scn")
    m = ingress_map(state, s.topology, 65001)
    lines = m.to_csv().splitlines()
    assert lines[0] == "src_asn,dst_prefix,link"
    assert lines[1] == "100,10.1.0.0/16,l1"


def test_diff_ingress():
    base = IngressMap(1, {(2, P1): "l1", (3, P1): "l1"})
    same = IngressMap(1, {(2, P1): "l1", (3, P1): "l1"})
    moved = IngressMap(1, {(2, P1): "l2", (3, P1): "l1"})
    assert diff_ingress(base, same) == []
    assert diff_ingress(base, moved) == [(2, P1, "l1", "l2")]
    with pytest.raises(ValueError):
        diff_ingress(base, IngressMap(2, dict(base.entries)))
    with pytest.raises(ValueError):
        diff_ingress(base, IngressMap(1, {(2, P1): "l1"}))


def test_deep_diff_before_after():
    s, state = run("scenarios/deep_baseline.scn")
    sp, statep = run("scenarios/deep_planned.scn")
    before = ingress_map(state, s.topology, 65001)
    after = ingress_map(statep, sp.topology, 65001)
    moves = diff_ingress(before, after)
    as_set = {(m[0], m[1], m[2], m[3]) for m in moves}
    assert (65102, P2, "l1", "l2") in as_set
    assert (65103, P2, "l1", "l2") in as_set


def reference_ingress_entries(state, t, dest):
    """Hop-by-hop reference for `ingress_map`: one `resolve_forwarding` walk
    per (source, prefix) pair."""
    entries = {}
    for src in t.ases():
        if src == dest:
            continue
        for prefix in t.originated_by(dest):
            hops = resolve_forwarding(state, t, src, prefix)
            entered = hops and dest in t.link_by_id(hops[-1]).endpoints()
            entries[(src, prefix)] = hops[-1] if entered else UNREACHABLE
    return entries


def assert_table_matches_walks(state, t):
    """Every originated prefix's ingress map, and the forwarding table of
    every prefix a route is installed for, against single-flow walks."""
    for dest in t.originations:
        if t.originated_by(dest):
            assert ingress_map(state, t, dest).entries == reference_ingress_entries(state, t, dest)
    installed = {p for rib in state.loc_rib.values() for p in rib}
    for prefix in installed:
        if t.origin_of(prefix) is None:
            continue
        table = ForwardingTable(state, t, prefix)
        for src in t.ases():
            hops = resolve_forwarding(state, t, src, prefix)
            assert table.last_link(src) == (None if hops is None else hops[-1] if hops else LOCAL)


CONVERGING_GOLDENS = sorted(p for p in Path("scenarios").glob("*.scn") if p.name != "oscillate.scn")


@pytest.mark.parametrize("path", CONVERGING_GOLDENS, ids=lambda p: p.stem)
def test_ingress_table_matches_hop_by_hop_walks_on_goldens(path):
    s, state = run(path)
    assert_table_matches_walks(state, s.topology)


def test_ingress_table_matches_hop_by_hop_walks_on_random_cases():
    import gen

    rng = random.Random(2024)
    converged = 0
    for case in range(200):
        policies = case % 2 == 1
        t = gen.rand_topology(rng, with_catalogs=policies)
        te = gen.rand_te(rng, t, with_communities=policies, with_lp_overrides=policies)
        try:
            state = propagate_to_convergence(t, te)
        except OscillationError:
            continue
        assert_table_matches_walks(state, t)
        converged += 1
    assert converged >= 190


def test_ingress_falls_back_to_another_origins_aggregate():
    # 1 originates 10.1.0.0/16 but announces it only to provider 2; 4
    # originates the covering 10.0.0.0/8 and sells transit to 3 alone.  So
    # 3 and its customer 5 forward 10.1.0.0/16 traffic toward 4, where it
    # ends without entering 1.
    text = (
        "as 1 stub\nas 2 transit\nas 3 transit\nas 4 transit\nas 5 stub\nas 6 stub\n"
        "link l1 1 2 c2p\nlink l2 1 3 c2p\nlink l3 5 3 c2p\nlink l4 6 2 c2p\nlink l5 3 4 c2p\n"
        "originate 1 10.1.0.0/16\noriginate 4 10.0.0.0/8\n"
        "advertise 1 10.1.0.0/16 l1\n"
    )
    s = parse_scenario(text)
    state = propagate_to_convergence(s.topology, s.te_config)
    assert resolve_forwarding(state, s.topology, 5, P1) == ["l3", "l5"]
    assert resolve_forwarding(state, s.topology, 4, P1) == []
    m = ingress_map(state, s.topology, 1)
    assert m.entries == {
        (2, P1): "l1",
        (3, P1): UNREACHABLE,
        (4, P1): UNREACHABLE,
        (5, P1): UNREACHABLE,
        (6, P1): "l1",
    }
    assert_table_matches_walks(state, s.topology)


def test_forwarding_loop_leaves_every_as_on_it_dead():
    # Not a fixed point of the engine: a hand-made state where 2 -> 3 -> 4 -> 2
    # forward in a circle and 5 forwards into the circle.
    hops = {2: ("l2", 3), 3: ("l3", 4), 4: ("l4", 2), 5: ("l5", 2)}
    links = [Link("l1", 2, 1, 1), Link("l2", 2, 3, None), Link("l3", 3, 4, None),
             Link("l4", 4, 2, None), Link("l5", 5, 2, 5)]
    t = Topology({1: "stub", 2: "transit", 3: "transit", 4: "transit", 5: "stub"}, tuple(links),
                 {1: frozenset({P1})})
    loc_rib = {1: {P1: local_route(P1, 1)}}
    for asn, (link_id, nxt) in hops.items():
        loc_rib[asn] = {P1: Route(P1, (nxt, 1), 100, None, frozenset(), link_id, 1)}
    state = ConvergedState({}, loc_rib, 1)
    for order in ([5, 2, 3, 4, 1], [3, 1, 4, 5, 2]):
        table = ForwardingTable(state, t, P1)
        assert [table.last_link(asn) for asn in order] == [None if asn != 1 else LOCAL for asn in order]
    assert all(resolve_forwarding(state, t, asn, P1) is None for asn in hops)
    assert ingress_map(state, t, 1).entries == {(asn, P1): UNREACHABLE for asn in hops}


def test_a_hop_over_a_link_that_misses_the_as_raises():
    # A hand-made state, not a fixed point: AS 3 claims to have learned its
    # route over l1, which joins 1 and 2 only.
    t = Topology({1: "stub", 2: "transit", 3: "stub"}, (Link("l1", 1, 2, 1), Link("l2", 3, 2, 3)),
                 {1: frozenset({P1})})
    loc_rib = {
        1: {P1: local_route(P1, 1)},
        2: {P1: Route(P1, (1,), 200, None, frozenset(), "l1", 1)},
        3: {P1: Route(P1, (2, 1), 50, None, frozenset(), "l1", 1)},
    }
    state = ConvergedState({}, loc_rib, 1)
    assert ForwardingTable(state, t, P1).last_link(2) == "l1"
    with pytest.raises(ValueError, match="AS 3 is not on link l1"):
        ForwardingTable(state, t, P1).last_link(3)
    with pytest.raises(ValueError, match="AS 3 is not on link l1"):
        resolve_forwarding(state, t, 3, P1)
    with pytest.raises(ValueError, match="AS 3 is not on link l1"):
        ingress_map(state, t, 1)
