import random
from dataclasses import replace
from pathlib import Path

import pytest

import bgpsteer.scenario
from bgpsteer import (
    Advertisement,
    Finding,
    Link,
    Prefix,
    Rel,
    ScenarioError,
    Topology,
    TopologyError,
    evaluate_plan,
    parse_scenario,
    parse_topology,
    plan_inbound_te,
    propagate_to_convergence,
    relationship_between,
    serialize_scenario,
    validate_topology,
)
from bgpsteer.policies import PeerSelector, PolicyCatalog
from bgpsteer.routes import COMMUNITY_BUDGET, Community
from bgpsteer.topology import require_valid

DUAL = open("scenarios/dualprovider_baseline.scn").read()


def test_prefix_parse_and_render():
    p = Prefix.parse("10.1.0.0/16")
    assert (p.base, p.length) == (0x0A010000, 16)
    assert str(p) == "10.1.0.0/16"
    assert str(Prefix.parse("0.0.0.0/0")) == "0.0.0.0/0"


@pytest.mark.parametrize("bad", ["10.1.0.0", "10.1.0.1/16", "256.0.0.0/8", "10.0.0.0/33", "x/8"])
def test_prefix_rejects(bad):
    with pytest.raises(ValueError):
        Prefix.parse(bad)


def test_prefix_constructor_checks():
    with pytest.raises(ValueError, match="length out of range"):
        Prefix(0, 33)
    with pytest.raises(ValueError, match="length out of range"):
        Prefix(0, -1)
    with pytest.raises(ValueError, match="32-bit"):
        Prefix(2**32, 32)
    with pytest.raises(ValueError, match="host bits"):
        Prefix(0x0A010001, 16)


def test_prefix_is_the_tuple_base_length():
    p = Prefix.parse("10.1.0.0/16")
    assert p == (0x0A010000, 16) and hash(p) == hash((0x0A010000, 16))
    assert Prefix(base=0x0A010000, length=16) == p and repr(p) == "Prefix(base=167837696, length=16)"
    # Sorted by address, then length: the order every report uses.
    ps = [Prefix.parse(x) for x in ("10.2.0.0/16", "10.1.128.0/17", "10.1.0.0/16", "10.0.0.0/8")]
    assert sorted(ps) == sorted(ps, key=Prefix.sort_key)
    assert [str(x) for x in sorted(ps)] == ["10.0.0.0/8", "10.1.0.0/16", "10.1.128.0/17", "10.2.0.0/16"]


def test_prefix_containment():
    p16 = Prefix.parse("10.1.0.0/16")
    p17 = Prefix.parse("10.1.128.0/17")
    other = Prefix.parse("10.2.0.0/16")
    assert p16.contains(p17) and not p17.contains(p16)
    assert not p16.contains(other)
    assert p17.is_strict_subprefix_of(p16)
    assert not p16.is_strict_subprefix_of(p16)


def test_prefix_containment_partial_order():
    rng = random.Random(42)
    prefixes = []
    for _ in range(120):
        length = rng.randint(0, 32)
        base = rng.getrandbits(32)
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        prefixes.append(Prefix(base & mask, length))
    for p in prefixes:
        assert p.contains(p)
    for a in prefixes:
        for b in prefixes:
            if a.contains(b) and b.contains(a):
                assert a == b
    for a, b, c in zip(prefixes, prefixes[1:], prefixes[2:]):
        if a.contains(b) and b.contains(c):
            assert a.contains(c)


def test_dualprovider_parses_to_seven_ases_eight_links():
    t = parse_topology(DUAL)
    assert len(t.roles) == 7
    assert len(t.links) == 8
    assert validate_topology(t).findings == ()


def test_empty_scenario():
    t = parse_topology("")
    assert t.ases() == []
    assert t.links == ()


def test_duplicate_link_id_positioned():
    text = "as 1 stub\nas 2 stub\nlink l1 1 2 p2p\nlink l1 1 2 p2p\n"
    with pytest.raises(ScenarioError) as err:
        parse_topology(text)
    assert err.value.line == 4
    assert "duplicate link id" in str(err.value)


def test_unknown_asn_reference():
    with pytest.raises(ScenarioError) as err:
        parse_topology("as 1 stub\nlink l1 1 99 p2p\n")
    assert "unknown ASN reference" in str(err.value)


def test_duplicate_origination_by_two_ases():
    text = "as 1 stub\nas 2 stub\noriginate 1 10.0.0.0/8\noriginate 2 10.0.0.0/8\n"
    with pytest.raises(ScenarioError) as err:
        parse_topology(text)
    assert "already originated" in str(err.value)


def test_catalog_on_stub_rejected_by_parser():
    text = "as 1 stub\nas 2 stub\nlink l1 1 2 c2p\npolicy 1 lp 100:50 50\n"
    with pytest.raises(ScenarioError) as err:
        parse_topology(text)
    assert "non-transit" in str(err.value)


def test_catalog_on_stub_is_error_finding():
    cat = PolicyCatalog(1, {Community(100, 50): 50}, {}, {}, {})
    t = Topology({1: "stub", 2: "transit"}, (Link("l1", 1, 2, 1),), {}, {1: cat})
    report = validate_topology(t)
    assert any("non-transit" in f.message for f in report.errors)


def test_provider_cycle_is_warning():
    # A buys from B, B from C, C from A: flagged but not fatal.
    links = (Link("l1", 1, 2, 1), Link("l2", 2, 3, 2), Link("l3", 3, 1, 3))
    t = Topology({1: "transit", 2: "transit", 3: "transit"}, links, {}, {})
    report = validate_topology(t)
    assert report.ok()
    assert any("cycle" in f.message for f in report.warnings)


def test_provider_cycle_warning_names_a_customer_to_provider_chain():
    # Random graphs where each AS buys only from higher ASNs, plus peer
    # links and one cycle: a c2p chain from a low AS up to a high one, closed
    # by the high AS buying from the low one.  The warned chain closes on its
    # first AS, and each step is an up c2p link from a customer to its
    # provider.
    rng = random.Random(5)
    for _ in range(200):
        roles = {asn: "transit" for asn in range(1, rng.randint(3, 7) + 1)}
        pairs = [(a, b) for a in roles for b in roles if a < b and rng.random() < 0.4]
        links = [Link(f"c{i}", a, b, a, up=rng.random() < 0.8) for i, (a, b) in enumerate(pairs)]
        links += [Link(f"p{i}", a, b, None) for i, (a, b) in enumerate(pairs) if rng.random() < 0.3]
        low, high = sorted(rng.sample(sorted(roles), 2))
        links += [Link(f"k{a}", a, a + 1, a) for a in range(low, high)]
        links.append(Link("back", high, low, high))
        t = Topology(roles, tuple(links), {}, {})
        [warning] = [f.message for f in validate_topology(t).warnings if "cycle" in f.message]
        chain = warning.split(": ", 1)[1].split(" (", 1)[0].split(" -> ")
        cycle = [int(a) for a in chain]
        assert len(cycle) >= 3 and cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        for customer, provider in zip(cycle, cycle[1:]):
            assert any(l.up and l.customer == customer and l.other(customer) == provider for l in links), warning


def test_a_down_link_closes_no_provider_cycle():
    text = "as 1 transit\nas 2 transit\nas 3 transit\nlink l1 1 2 c2p\nlink l2 2 3 c2p\nlink l3 3 1 c2p"
    [warning] = parse_topology(text + "\n").validation.warnings
    assert warning.message.startswith("customer->provider cycle: 1 -> 2 -> 3 -> 1")
    report = parse_topology(text + " down\n").validation
    assert report.ok() and not report.warnings


def test_acyclic_random_topologies_have_no_cycle_warning():
    import gen

    rng = random.Random(3)
    for _ in range(50):
        t = gen.rand_topology(rng)
        assert not any("cycle" in f.message for f in validate_topology(t).warnings)


def test_relationship_between_dualprovider():
    t = parse_topology(DUAL)
    assert relationship_between(t, 65001, 100) == {("l1", Rel.PROVIDER)}
    assert relationship_between(t, 100, 65001) == {("l1", Rel.CUSTOMER)}
    with pytest.raises(ValueError):
        relationship_between(t, 65001, 65001)
    with pytest.raises(KeyError):
        relationship_between(t, 65001, 4242)


def test_relationship_between_dual_links():
    text = (
        "as 1 stub\nas 2 transit\n"
        "link l1 1 2 c2p\nlink l2 1 2 c2p\noriginate 1 10.0.0.0/8\n"
    )
    t = parse_topology(text)
    assert relationship_between(t, 1, 2) == {("l1", Rel.PROVIDER), ("l2", Rel.PROVIDER)}


def test_down_links_excluded_from_relationship_view():
    text = "as 1 stub\nas 2 transit\nlink l1 1 2 c2p down\n"
    t = parse_topology(text)
    assert relationship_between(t, 1, 2) == set()


def test_mixed_parallel_relationship_warning():
    links = (Link("l1", 1, 2, 1), Link("l2", 1, 2, None))
    t = Topology({1: "stub", 2: "transit"}, links, {}, {})
    assert any("differing relationships" in f.message for f in validate_topology(t).warnings)


def test_roundtrip_canonical_identity_on_goldens():
    import pathlib

    for path in sorted(pathlib.Path("scenarios").glob("*.scn")):
        s = parse_scenario(path.read_text())
        canon = serialize_scenario(s)
        s2 = parse_scenario(canon)
        assert s2 == s, path.name
        assert serialize_scenario(s2) == canon, path.name


def test_roundtrip_needs_the_canonical_order_and_no_empty_catalog():
    """The three conditions of serialize_scenario's round trip besides the
    objectives' order: each broken case parses back to another scenario,
    whose text is the same."""
    from dataclasses import replace

    from bgpsteer import PolicyCatalog

    s = parse_scenario(open("scenarios/failover_morespecific.scn").read())
    t, te = s.topology, s.te_config
    stub = min(asn for asn in t.roles if asn not in t.catalogs)
    cases = {
        "links not sorted by id": replace(s, topology=replace(t, links=t.links[::-1])),
        "advertisements out of order": replace(
            s, te_config=replace(te, advertisements=te.advertisements[::-1])
        ),
        "an empty catalog": replace(
            s, topology=replace(t, catalogs={**t.catalogs, stub: PolicyCatalog(stub)})
        ),
    }
    assert parse_scenario(serialize_scenario(s)) == s
    for kind, broken in cases.items():
        text = serialize_scenario(broken)
        back = parse_scenario(text)
        assert back != broken, kind
        assert serialize_scenario(back) == text, kind


def test_serialize_rejects_a_prefix_withheld_on_every_link():
    from bgpsteer import Scenario, TeConfig

    s = parse_scenario(DUAL)
    te = TeConfig(withheld=frozenset({(65001, Prefix.parse("10.1.0.0/16"))}))
    with pytest.raises(ValueError, match="no scenario record"):
        serialize_scenario(Scenario(s.topology, te, ()))


def test_roundtrip_random_scenarios():
    import gen

    rng = random.Random(9)
    for _ in range(60):
        t = gen.rand_topology(rng, with_catalogs=True)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        from bgpsteer import Scenario

        s = parse_scenario(serialize_scenario(Scenario(t, te, ())))
        assert parse_scenario(serialize_scenario(s)) == s


def test_parsed_topologies_validate_clean():
    import gen

    rng = random.Random(21)
    from bgpsteer import Scenario

    for _ in range(40):
        t = gen.rand_topology(rng, with_catalogs=True)
        te = gen.rand_te(rng, t)
        text = serialize_scenario(Scenario(t, te, ()))
        assert not validate_topology(parse_topology(text)).errors


def test_each_topology_is_validated_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return validate_topology(t)

    monkeypatch.setattr("bgpsteer.topology.validate_topology", counted)
    s = parse_scenario(open("scenarios/dualprovider_sourceasn_objectives.scn").read())
    t = s.topology
    propagate_to_convergence(t, s.te_config)
    plan = plan_inbound_te(t, 65001, s.objectives)
    evaluate_plan(t, 65001, plan, s.objectives)
    assert len(calls) == 1 and calls[0] is t


def test_an_invalid_topology_fails_every_check():
    t = Topology({1: "stub"}, (Link("l1", 1, 2, 1),), {}, {})
    for _ in range(2):  # the second check reads the cached report
        with pytest.raises(TopologyError, match="undeclared AS 2"):
            require_valid(t)


def test_finding_is_data():
    f = Finding("warning", "x")
    assert f.severity == "warning"


GOLDENS = sorted(Path("scenarios").glob("*.scn"))


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_link_and_neighbor_lookups_match_a_scan_of_the_links(path):
    _check_lookups(parse_scenario(path.read_text()).topology)


def test_link_and_neighbor_lookups_match_a_scan_on_random_topologies():
    """Includes p2p links parallel to c2p links (gen.with_rule_facts)."""
    for t in _session_cases()[len(GOLDENS):]:
        _check_lookups(t)


def _check_lookups(t):
    for link_id in {l.id for l in t.links}:
        assert t.link_by_id(link_id) == next(l for l in t.links if l.id == link_id)
    rank = {Rel.CUSTOMER: 0, Rel.PEER: 1, Rel.PROVIDER: 2}
    for asn in list(t.roles) + [4_000_000]:
        up = [l for l in t.links if l.up and asn in l.endpoints()]
        assert t.up_links_of(asn) == up
        expected: dict[int, Rel] = {}
        for l in up:
            other, rel = l.other(asn), l.rel_from(asn)
            if other not in expected or rank[rel] < rank[expected[other]]:
                expected[other] = rel
        assert t.neighbor_rels(asn) == expected
    with pytest.raises(KeyError) as err:
        t.link_by_id("no-such-link")
    assert err.value.args == ("unknown link id: no-such-link",)


def _session_cases():
    import gen

    cases = [parse_scenario(path.read_text()).topology for path in GOLDENS]
    rng = random.Random(23)
    for _ in range(150):
        t = gen.rand_topology(rng, with_catalogs=rng.random() < 0.6)
        cases.append(gen.with_rule_facts(rng, t) if rng.random() < 0.7 else t)
    return cases


def test_sessions_match_the_plain_lookups():
    """Each compiled session equals what Link.rel_from, default_local_pref
    and the catalogs give for its link (the catalog only where the
    receiver's catalog applies); down links have none.  Each exporter's
    `Sessions` carries its own catalog, its neighbor_rels where it has a
    catalog, and its customer links; each learned link's split is
    export_permitted's."""
    from bgpsteer.routes import default_local_pref, export_permitted

    for t in _session_cases():
        up_ends = {(asn, l.id) for l in t.links if l.up for asn in l.endpoints()}
        assert {(asn, s.link_id) for asn, out in t.sessions.items() for s in out.all} == up_ends
        for asn, out in t.sessions.items():
            assert out.catalog is t.catalogs.get(asn)
            assert out.neighbor_rels == (None if out.catalog is None else t.neighbor_rels(asn))
            assert out.customer_links == {s.link_id for s in out.all if t.link_by_id(s.link_id).customer == s.neighbor}
            assert [s.link_id for s in out.all] == sorted(s.link_id for s in out.all)
            for s in out.all:
                link = t.link_by_id(s.link_id)
                sender_rel = link.rel_from(s.neighbor)
                assert s.neighbor == link.other(asn)
                assert s.rel is link.rel_from(asn)
                assert s.local_pref == default_local_pref(sender_rel)
                assert s.catalog is (t.catalogs.get(s.neighbor) if sender_rel is Rel.CUSTOMER else None)
            for learned in out.all:
                send, withhold = out.by_learned[learned.link_id]
                assert send == tuple(s for s in out.all if export_permitted(learned.rel, s.rel))
                assert withhold == tuple(s for s in out.all if s not in send)
        assert set(t.sessions) == {asn for asn, _ in up_ends}


def origin_by_scan(t: Topology, prefix: Prefix) -> int | None:
    """Reference for `Topology.origin_of`: scan every origination for the
    longest one covering `prefix`."""
    best: tuple[int, int] | None = None
    for asn, prefixes in t.originations.items():
        for p in prefixes:
            if p.contains(prefix) and (best is None or p.length > best[0]):
                best = (p.length, asn)
    return None if best is None else best[1]


def origin_queries(t: Topology, extra: list[Prefix]) -> list[Prefix]:
    """Every originated prefix, its two halves and a /28 inside it, the given
    extra prefixes, and two prefixes outside any origination in the tests."""
    queries = list(extra) + [Prefix.parse("192.168.0.0/16"), Prefix.parse("0.0.0.0/0")]
    for prefixes in t.originations.values():
        for p in prefixes:
            queries.append(p)
            if p.length < 32:
                queries += [Prefix(p.base, p.length + 1), Prefix(p.base | 1 << (31 - p.length), p.length + 1)]
            if p.length < 28:
                queries.append(Prefix(p.base, 28))
    return queries


def test_origin_of_matches_a_scan_of_the_originations():
    import gen

    cases = []
    for path in GOLDENS:
        s = parse_scenario(path.read_text())
        cases.append((s.topology, [o.flow.dst_prefix for o in s.objectives]))
    rng = random.Random(11)
    for _ in range(5):
        cases.append((gen.rand_topology(rng), []))
        t, _dest, objectives, _budget = gen.rand_planning_instance(rng)
        cases.append((t, [o.flow.dst_prefix for o in objectives]))
    nested = {1: "10.0.0.0/8", 2: "10.1.0.0/16", 3: "10.1.128.0/17", 4: "10.1.128.0/24"}
    t = Topology({asn: "stub" for asn in nested}, (),
                 {asn: frozenset({Prefix.parse(p)}) for asn, p in nested.items()})
    expected = {"10.1.128.0/25": 4, "10.1.129.0/24": 3, "10.1.0.0/17": 2, "10.200.0.0/16": 1, "11.0.0.0/8": None}
    assert {p: t.origin_of(Prefix.parse(p)) for p in expected} == expected
    cases.append((t, [Prefix.parse(p) for p in expected]))
    cases.append((Topology({1: "stub"}, (), {}), []))
    for t, extra in cases:
        for prefix in origin_queries(t, extra):
            assert t.origin_of(prefix) == origin_by_scan(t, prefix), (prefix, dict(t.originations))


# One bad scenario per rule the parser reports: the base is valid, each case
# appends records to it and names the line, the column and the whole message.
RULE_BASE = (
    "as 1 stub\nas 2 transit\nas 3 stub\nas 4 stub\n"
    "link l1 1 2 c2p\nlink l2 3 2 c2p\noriginate 1 10.1.0.0/16\n"
)
TOO_MANY_COMMUNITIES = "".join(f" community 65000:{i}" for i in range(COMMUNITY_BUDGET + 1))
RULE_TABLE = [
    ("as-twice", "as 1 stub\n", 8, 4, "AS 1 declared twice"),
    ("bad-role", "as 5 hub\n", 8, 6, "role must be stub or transit, got 'hub'"),
    ("as-field-count", "as 5\n", 8, 4, "as record: expected 3 fields, got 2"),
    ("asn-out-of-range", "as 4294967296 stub\n", 8, 4, "ASN 4294967296 out of range"),
    ("unknown-asn", "link l3 1 9 p2p\n", 8, 11, "unknown ASN reference 9"),
    ("duplicate-link-id", "link l1 3 2 c2p\n", 8, 6, "duplicate link id 'l1'"),
    ("endpoints-differ", "link l3 1 1 p2p\n", 8, 6, "link l3: endpoints must differ"),
    ("local-link-id", "link local 1 3 p2p\n", 8, 6, "'local' is reserved and cannot name a link"),
    ("bad-relationship", "link l3 1 3 x2y\n", 8, 13, "relationship must be c2p or p2p, got 'x2y'"),
    ("link-field-count", "link l3 1 3\n", 8, 1, "link record: expected 5 or 6 fields"),
    ("link-not-down", "link l3 1 3 p2p up\n", 8, 17, "expected 'down', got 'up'"),
    ("two-owners", "originate 3 10.1.0.0/16\n", 8, 13, "prefix 10.1.0.0/16 of AS 3 already originated by AS 1"),
    ("originated-twice", "originate 1 10.1.0.0/16\n", 8, 13, "duplicate origination of 10.1.0.0/16"),
    ("malformed-prefix", "originate 3 10.3.0.0/33\n", 8, 13, "prefix length out of range: 33"),
    ("catalog-on-stub", "policy 1 lp 1:1 50\npolicy 1 lp 1:2 60\n", 8, 8, "catalog on non-transit AS 1"),
    ("community-two-kinds", "policy 2 lp 2:1 50\npolicy 2 suppress 2:1 all\n", 9, 19,
     "AS 2: community 2:1 already mapped by another rule"),
    ("community-one-kind-twice", "policy 2 lp 2:1 50\npolicy 2 lp 2:1 60\n", 9, 13,
     "community 2:1 already mapped in AS 2's catalog"),
    ("malformed-community", "policy 2 lp 2:x 50\n", 8, 13, "malformed community: '2:x'"),
    ("policy-too-few", "policy 2\n", 8, 1, "policy record: too few fields"),
    ("policy-unknown-kind", "policy 2 med 2:1 5\n", 8, 10, "unknown policy kind 'med'"),
    ("policy-drops-field-count", "policy 2 drops-community-updates 1\n", 8, 34,
     "policy drops record: expected 3 fields, got 4"),
    ("prepend-count-high", "policy 2 prepend 2:1 all 4\n", 8, 18, "AS 2: prepend count 4 for 2:1 outside 1..3"),
    ("prepend-count-zero", "policy 2 prepend 2:1 all 0\n", 8, 18, "AS 2: prepend count 0 for 2:1 outside 1..3"),
    ("prepend-count-word", "policy 2 prepend 2:1 all x\n", 8, 26, "prepend count must be a number"),
    ("suppress-non-neighbor", "policy 2 suppress 2:1 4\n", 8, 19, "AS 2: selector names non-neighbor AS 4"),
    ("prepend-non-neighbor", "policy 2 prepend 2:1 4 2\n", 8, 18, "AS 2: selector names non-neighbor AS 4"),
    ("region-non-neighbor", "policy 2 region 4 eu\n", 8, 17, "AS 2: region tag on non-neighbor AS 4"),
    ("lp-word", "policy 2 lp 2:1 x\n", 8, 17, "LP value must be a non-negative integer"),
    ("lp-override-negative", "lp-override 2 1 -5\n", 8, 17, "LP value must be a non-negative integer"),
    ("ad-off-link", "advertise 1 10.1.0.0/16 l2\n", 8, 13, "AS 1 is not on link l2"),
    ("ad-outside-space", "advertise 1 10.2.0.0/16 l1\n", 8, 13,
     "AS 1 advertises 10.2.0.0/16 outside its originated space"),
    ("ad-budget", f"advertise 1 10.1.0.0/16 l1{TOO_MANY_COMMUNITIES}\n", 8, 13,
     f"more than {COMMUNITY_BUDGET} communities on one advertisement of 10.1.0.0/16"),
    ("ad-twice", "advertise 1 10.1.0.0/16 l1\nadvertise 1 10.1.0.0/16 l1 med 5\n", 9, 13,
     "duplicate advertisement of 10.1.0.0/16 on l1"),
    ("ad-unknown-link", "advertise 1 10.1.0.0/16 l9\n", 8, 13, "unknown link id: l9"),
    ("ad-too-few", "advertise 1 10.1.0.0/16\n", 8, 1, "advertise record: too few fields"),
    ("ad-unknown-keyword", "advertise 1 10.1.0.0/16 l1 lp 5\n", 8, 28, "expected 'community' or 'med', got 'lp'"),
    ("ad-community-no-value", "advertise 1 10.1.0.0/16 l1 community\n", 8, 28, "community keyword needs a value"),
    ("ad-med-word", "advertise 1 10.1.0.0/16 l1 med x\n", 8, 28, "med keyword needs a non-negative integer"),
    ("ad-med-twice", "advertise 1 10.1.0.0/16 l1 med 1 med 2\n", 8, 34, "med given twice"),
    ("ad-community-twice", "advertise 1 10.1.0.0/16 l1 community 9:9 med 3 community 9:9\n", 8, 58,
     "community 9:9 given twice"),
    # A link id or region tag must be one word; written with a space, the
    # record no longer reads as one (Link and PolicyCatalog.validate reject
    # such values built in Python).
    ("link-id-with-space", "link a b 1 3 p2p\n", 8, 8, "expected an AS number, got 'b'"),
    ("region-tag-with-space", "policy 2 region 1 e u\n", 8, 21, "policy region record: expected 5 fields, got 6"),
    ("selector-region-tag-empty", "policy 2 suppress 2:1 region:\n", 8, 19,
     "AS 2: selector region tag '' is not one word (no whitespace or '#')"),
    ("objective-unknown-link", "objective 1 * 10.1.0.0/16 l9\n", 8, 27, "unknown link id 'l9'"),
    ("objective-field-count", "objective 1 * 10.1.0.0/16\n", 8, 1,
     "objective record: expected 5 fields (plus optional src-prefix)"),
    ("objective-not-src-prefix", "objective 1 * 10.1.0.0/16 l1 dst-prefix 10.2.0.0/16\n", 8, 30,
     "expected 'src-prefix', got 'dst-prefix'"),
    ("unknown-record-kind", "route 1 10.1.0.0/16\n", 8, 1, "unknown record kind 'route'"),
    # The `as` records are read first and every other record in file order,
    # so the first syntax or ASN-reference error after them is the one raised.
    ("errors-in-file-order", "policy 2 lp 2:1 x\nlink l3 1 9 p2p\n", 8, 17,
     "LP value must be a non-negative integer"),
]


def _record_lines(lines):
    return [line.split("#", 1)[0].strip() for line in lines]


def test_the_readme_states_the_grammar_of_the_scenario_docstring():
    docstring = bgpsteer.scenario.__doc__.splitlines()
    grammar = [line for line in docstring if line.startswith("    ")]
    readme = Path("README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```\n")[1]
    assert _record_lines(block.splitlines()) == _record_lines(grammar)
    assert len(grammar) == 11


def test_rule_base_is_valid():
    parse_scenario(RULE_BASE)


@pytest.mark.parametrize("extra, line, col, message", [c[1:] for c in RULE_TABLE], ids=[c[0] for c in RULE_TABLE])
def test_rule_table(extra, line, col, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + extra)
    assert (err.value.line, err.value.col, str(err.value)) == (line, col, f"line {line}, col {col}: {message}")


def test_link_ids_are_checked_after_every_syntax_error():
    # An objective may name a link that a later record declares. An unknown
    # one is reported after every syntax error (in an `as` record, which is
    # read first, or in any later record), and in file order among the
    # validators' errors.
    later_link = "objective 1 * 10.1.0.0/16 l3\nlink l3 1 3 p2p\n"
    assert [o.required_link for o in parse_scenario(RULE_BASE + later_link).objectives] == ["l3"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + "objective 1 * 10.1.0.0/16 l9\nas 5 hub\n")
    assert (err.value.line, err.value.col) == (9, 6)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + "objective 1 * 10.1.0.0/16 l9\nlp-override 2 1 x\n")
    assert (err.value.line, err.value.col) == (9, 17)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + "objective 1 * 10.1.0.0/16 l9\npolicy 2 suppress 2:1 4\n")
    assert (err.value.line, err.value.col) == (8, 27)


def test_link_id_local_is_reserved_in_api_built_topologies():
    # The engine marks locally originated routes learned_on="local"; a link
    # of that name would be confused with them.
    with pytest.raises(ValueError, match="'local' is reserved"):
        Topology(
            {1: "stub", 2: "transit", 3: "stub"},
            (Link("local", 1, 2, 1), Link("l2", 3, 2, 3)),
            {1: frozenset({Prefix.parse("10.1.0.0/16")})},
        )


@pytest.mark.parametrize("link_id", ["a b", "a\tb", "", "l#1", "l\u20281", "l\xa01", 7])
def test_a_link_id_must_be_one_word(link_id):
    # Anything else would serialize to a record that reads back differently.
    with pytest.raises(ValueError, match="is not one word"):
        Link(link_id, 1, 2, 1)


def test_a_region_tag_must_be_one_word():
    t = parse_topology(RULE_BASE)
    c = Community(2, 1)
    cat = PolicyCatalog(2, suppress_rules={c: PeerSelector.for_region("e u")}, region_of={1: "e u", 3: "us"})
    errors = validate_topology(replace(t, catalogs={2: cat})).errors
    assert [(f.subject, f.message) for f in errors] == [
        (("rule", 2, c), "AS 2: selector region tag 'e u' is not one word (no whitespace or '#')"),
        (("region", 2, 1), "AS 2: region tag 'e u' of AS 1 is not one word (no whitespace or '#')"),
    ]


def test_a_repeated_advertise_community_is_reported_at_its_second_value():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + "advertise 1 10.1.0.0/16 l1 community 9:9 community 9:9\n")
    assert (err.value.line, err.value.col) == (8, 52)


@pytest.mark.parametrize(
    "records",
    ["policy 2 region 1 eu\npolicy 2 region 1 us\n", "lp-override 2 1 300\nlp-override 2 1 40\n"],
    ids=["region", "lp-override"],
)
def test_a_repeated_region_or_lp_override_is_rejected(records):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(RULE_BASE + records)
    assert err.value.line == 9 and "given twice" in str(err.value)


def _unchecked_link(link_id: str, a: int, b: int, customer: int | None, up: bool = True) -> Link:
    """A link built without Link's own checks, to serialize as a fault."""
    link = object.__new__(Link)
    for name, value in zip(("id", "a", "b", "customer", "up"), (link_id, a, b, customer, up)):
        object.__setattr__(link, name, value)
    return link


def _fault(kind: str, rng: random.Random, s):
    """`s` with one fault of `kind` injected where the scenario allows it."""
    t, te = s.topology, s.te_config
    ases = t.ases()
    origin = rng.choice(sorted(t.originations))
    prefix = rng.choice(sorted(t.originated_by(origin)))
    near = [l for l in t.links if origin in l.endpoints()]
    far = [l for l in t.links if origin not in l.endpoints()]
    transit = rng.choice([a for a in ases if t.roles[a] == "transit"] or ases)
    neighbors = {l.other(transit) for l in t.links if transit in l.endpoints()}
    strangers = [a for a in ases if a != transit and a not in neighbors]
    stranger = rng.choice(strangers) if strangers else 60_001  # no link to `transit`
    roles = {**t.roles, stranger: t.roles.get(stranger, "stub")}
    c = Community(transit % 0xFFFF, 500)

    def topo(**changes):
        return replace(s, topology=replace(t, **changes))

    def catalog(asn, **rules):
        rules = replace(t.catalogs.get(asn, PolicyCatalog(asn)), **rules)
        return topo(roles=roles, catalogs={**t.catalogs, asn: rules})

    def ads(*extra):
        return replace(s, te_config=replace(te, advertisements=te.advertisements + extra))

    def ad(**fields):
        link = rng.choice(near)
        return Advertisement(**{"origin": origin, "prefix": prefix, "link_id": link.id, **fields})

    if kind == "duplicate-link-id":
        l = rng.choice(t.links)
        return topo(links=t.links + (Link(l.id, l.b, l.a, None),))
    if kind == "endpoints-differ":
        return topo(links=t.links + (_unchecked_link("lx", origin, origin, None),))
    if kind == "local-link-id":
        return topo(links=t.links + (_unchecked_link("local", *rng.sample(ases, 2), None),))
    if kind == "two-owners":
        other = rng.choice([a for a in ases if a != origin])
        return topo(originations={**t.originations, other: t.originated_by(other) | {prefix}})
    if kind == "catalog-on-stub":
        return catalog(rng.choice([a for a in ases if t.roles[a] == "stub"]), lp_rules={c: 50})
    if kind == "community-two-kinds":
        return catalog(transit, lp_rules={c: 50}, suppress_rules={c: PeerSelector.all_upstreams()})
    if kind == "prepend-count":
        return catalog(transit, prepend_rules={c: (PeerSelector.all_upstreams(), rng.choice([0, 4, 9]))})
    if kind == "selector-non-neighbor":
        return catalog(transit, suppress_rules={c: PeerSelector.specific(stranger)})
    if kind == "region-non-neighbor":
        return catalog(transit, region_of={stranger: "eu"})
    if kind == "spaced-region-tag":
        return catalog(transit, region_of={rng.choice(sorted(neighbors or {stranger})): "e u"})
    if kind == "spaced-selector-tag":
        return catalog(transit, suppress_rules={c: PeerSelector.for_region("e u")})
    if kind == "spaced-link-id":
        return topo(links=t.links + (_unchecked_link("a b", *rng.sample(ases, 2), None),))
    if kind == "negative-lp":
        return catalog(transit, lp_rules={c: -rng.randint(1, 300)})
    if kind == "bad-role":
        return topo(roles={**t.roles, rng.choice(ases): "hub"})
    if kind == "unknown-asn":
        return topo(links=t.links + (Link("lx", origin, 4_000_000, None),))
    if kind == "ad-off-link" and far:
        return ads(ad(link_id=rng.choice(far).id))
    if kind == "ad-outside-space":
        return ads(ad(prefix=Prefix.parse("192.168.0.0/16")))
    if kind == "ad-budget":
        return ads(ad(communities=frozenset(Community(65000, i) for i in range(COMMUNITY_BUDGET + 1))))
    if kind == "ad-twice":
        twice = ad()
        return ads(twice, twice)
    if kind == "ad-unknown-link":
        return ads(ad(link_id="zz"))
    if kind == "negative-med":
        return ads(ad(med=-rng.randint(1, 50)))
    return s


FAULT_KINDS = [
    "duplicate-link-id", "endpoints-differ", "local-link-id", "two-owners", "catalog-on-stub",
    "community-two-kinds", "prepend-count", "selector-non-neighbor", "region-non-neighbor",
    "negative-lp", "bad-role", "unknown-asn", "ad-off-link", "ad-outside-space", "ad-budget",
    "ad-twice", "ad-unknown-link", "negative-med", "spaced-region-tag", "spaced-selector-tag",
    "spaced-link-id",
]


def _validators_reject(s) -> bool:
    t = s.topology
    try:
        for l in t.links:
            Link(l.id, l.a, l.b, l.customer, l.up)
        s.te_config.validate(t)
    except ValueError:
        return True
    return bool(validate_topology(t).errors)


def test_the_parser_accepts_exactly_what_the_validators_accept():
    """Seeded gen scenarios, each with one injected fault (or none),
    serialized and parsed: the parse fails exactly when Link, validate_topology
    or TeConfig.validate rejects the objects.  Every fault kind is rejected
    often enough to count; a scenario with no fault always parses back to its
    own text."""
    import gen
    from bgpsteer import Scenario

    rejected = dict.fromkeys(FAULT_KINDS + ["none"], 0)
    for n in range(15 * len(rejected)):
        kind = list(rejected)[n % len(rejected)]
        rng = random.Random(n)
        t = gen.rand_topology(rng, with_catalogs=True)
        if rng.random() < 0.5:
            t = gen.with_rule_facts(rng, t)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        s = _fault(kind, rng, Scenario(t, te, ()))
        text = serialize_scenario(s)
        reject = _validators_reject(s)
        try:
            parsed = parse_scenario(text)
        except ScenarioError as exc:
            assert reject, (kind, str(exc), text)
        else:
            assert not reject, (kind, text)
            assert serialize_scenario(parsed) == text, kind
        rejected[kind] += reject
    assert rejected.pop("none") == 0
    assert min(rejected.values()) >= 10, rejected


# Link ids and region tags are mostly words made of WORD_PIECES, sometimes
# any text with the whitespace (line breaks included) and '#' that a
# scenario file splits on.
WORD_PIECES = ["a", "b", "7", ":", "-", "\xe9"]
ID_PIECES = WORD_PIECES + ["#", " ", "\t", "\xa0", "\u2028"]


def _rename(rng: random.Random, s):
    """`s` with random link ids and region tags."""
    t, te = s.topology, s.te_config

    def text() -> str:
        if rng.random() < 0.9:
            return "".join(rng.choice(WORD_PIECES) for _ in range(rng.randint(1, 3)))
        return "".join(rng.choice(ID_PIECES) for _ in range(rng.randint(0, 3)))

    ids = {link.id: text() for link in t.links}
    links = tuple(_unchecked_link(ids[l.id], l.a, l.b, l.customer, l.up) for l in t.links)

    def retag(sel: PeerSelector) -> PeerSelector:
        return PeerSelector.for_region(text()) if sel.kind == "region" else sel

    catalogs = {
        owner: replace(
            cat,
            region_of={asn: text() for asn in cat.region_of},
            suppress_rules={c: retag(sel) for c, sel in cat.suppress_rules.items()},
            prepend_rules={c: (retag(sel), n) for c, (sel, n) in cat.prepend_rules.items()},
        )
        for owner, cat in t.catalogs.items()
    }
    ads = tuple(ad._replace(link_id=ids[ad.link_id]) for ad in te.advertisements)
    return replace(s, topology=replace(t, links=links, catalogs=catalogs), te_config=replace(te, advertisements=ads))


def test_what_the_validators_accept_round_trips_through_the_text_form():
    """Seeded gen scenarios with random link ids and region tags: a scenario
    that Link and the validators accept serializes to text that parses back
    to the same scenario; the text of any other does not."""
    import gen
    from bgpsteer import Scenario

    accepted = renamed = rejected = 0
    for n in range(300):
        rng = random.Random(n)
        t = gen.with_rule_facts(rng, gen.rand_topology(rng, with_catalogs=True))
        s = Scenario(t, gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True), ())
        rename = rng.random() < 0.8
        if rename:
            s = _rename(rng, s)
        text = serialize_scenario(s)
        if _validators_reject(s):
            # The text is an error, or (a link id " x" reads back as "x")
            # another scenario.
            try:
                assert serialize_scenario(parse_scenario(text)) != text
            except ScenarioError:
                pass
            rejected += 1
            continue
        parsed = parse_scenario(text)
        t, back = s.topology, parsed.topology
        assert set(parsed.te_config.advertisements) == set(s.te_config.advertisements)
        assert parsed.te_config.lp_overrides == s.te_config.lp_overrides
        assert (back.roles, back.originations) == (t.roles, t.originations)
        assert sorted(back.links, key=lambda l: l.id) == sorted(t.links, key=lambda l: l.id)
        # An empty catalog has no record.
        assert back.catalogs == {o: cat for o, cat in t.catalogs.items() if not cat.is_empty()}
        assert serialize_scenario(parsed) == text
        accepted += 1
        renamed += rename
    assert renamed >= 30 and accepted - renamed >= 30 and rejected >= 60, (accepted, renamed, rejected)
