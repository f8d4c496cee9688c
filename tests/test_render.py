"""The state dump and the ingress CSV against plain reference renderers.

`ConvergedState.dump` and `ingress_csv` cache what repeats across lines
(AS-path text, the fields after the path, prefix text).  The references
below format every line in full, as the two renderers once did, and
must agree with them byte for byte: on the final dump and on every round a
`--trace` run prints, on the golden corpus and on seeded random cases.
"""

import random
from pathlib import Path

import pytest

from bgpsteer import OscillationError, ingress_map, parse_scenario, propagate_to_convergence
from bgpsteer.engine import ConvergedState
from bgpsteer.flows import UNREACHABLE, ingress_csv
from bgpsteer.routes import Community
from bgpsteer.topology import Prefix

GOLDENS = sorted(Path("scenarios").glob("*.scn"))


def reference_dump(state):
    def line(kind, r):
        path = ",".join(str(a) for a in r.as_path) if r.as_path else "-"
        med = "-" if r.med is None else r.med
        comms = "-"
        if r.communities:
            comms = ",".join(str(c) for c in sorted(r.communities, key=Community.sort_key))
        return f"  {kind} path={path} lp={r.local_pref} med={med} from={r.learned_on} comms={comms}"

    lines = [f"rounds {state.rounds_used}"]
    for asn in sorted(state.loc_rib):
        lines.append(f"as {asn}")
        loc = state.loc_rib[asn]
        adj = state.adj_rib_in.get(asn, {})
        for p in sorted(loc.keys() | adj.keys()):
            lines.append(f" rib {p}")
            if p in loc:
                lines.append(line("best", loc[p]))
            for link_id in sorted(adj.get(p, {})):
                lines.append(line("cand", adj[p][link_id]))
    return "\n".join(lines) + "\n"


def reference_csv(entries):
    rows = [f"{src},{prefix},{entries[src, prefix]}" for src, prefix in sorted(entries)]
    return "\n".join(["src_asn,dst_prefix,link", *rows]) + "\n"


@pytest.fixture
def dumps_checked(monkeypatch):
    """Every `ConvergedState.dump` call, the per-round trace dumps included,
    is checked against the reference; the list collects their round numbers."""
    original = ConvergedState.dump
    rounds = []

    def dump(self):
        text = original(self)
        assert text == reference_dump(self)
        rounds.append(self.rounds_used)
        return text

    monkeypatch.setattr(ConvergedState, "dump", dump)
    return rounds


def check_run(t, te, rounds):
    """Propagate with a trace that dumps each round, then check the final
    dump and every ingress CSV; returns the converged state, or None when the
    run oscillates."""
    del rounds[:]
    traced = []

    def trace(st):
        st.dump()
        traced.append(st.rounds_used)

    try:
        state = propagate_to_convergence(t, te, trace=trace)
    except OscillationError as exc:
        assert rounds == traced == list(range(1, exc.rounds + 1))
        return None
    assert rounds == traced == list(range(1, state.rounds_used + 1))
    state.dump()
    merged = {}
    for dest in sorted(t.originations):
        if t.originated_by(dest):
            entries = ingress_map(state, t, dest).entries
            assert ingress_csv(entries) == reference_csv(entries)
            merged.update(entries)
    assert ingress_csv(merged) == reference_csv(merged)
    return state


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_renderers_match_the_reference_on_goldens(path, dumps_checked):
    s = parse_scenario(path.read_text())
    state = check_run(s.topology, s.te_config, dumps_checked)
    assert (state is None) == (path.name == "oscillate.scn")


def test_renderers_match_the_reference_on_random_cases(dumps_checked):
    import gen

    rng = random.Random(1313)
    converged = communities = meds = more_specifics = 0
    for _ in range(200):
        t = gen.rand_topology(rng, with_catalogs=True)
        if rng.random() < 0.5:
            t = gen.with_rule_facts(rng, t)
        te = gen.rand_te(rng, t, with_communities=True, with_lp_overrides=True)
        state = check_run(t, te, dumps_checked)
        if state is None:
            continue
        converged += 1
        routes = [r for rib in state.adj_rib_in.values() for cands in rib.values() for r in cands.values()]
        communities += any(r.communities for r in routes)
        meds += any(r.med is not None for r in routes)
        more_specifics += any(ad.prefix not in t.originated_by(ad.origin) for ad in te.advertisements)
    # The cases exercise what the caches key on.
    assert converged >= 180
    assert min(communities, meds, more_specifics) >= 10, (communities, meds, more_specifics)


def test_renderers_match_the_reference_on_a_covering_prefix_fallback(dumps_checked):
    # 1 announces 10.1.0.0/16 to provider 2 only; 4 originates the covering
    # 10.0.0.0/8, so 3 and 5 reach 10.1.0.0/16 only through it.
    text = (
        "as 1 stub\nas 2 transit\nas 3 transit\nas 4 transit\nas 5 stub\nas 6 stub\n"
        "link l1 1 2 c2p\nlink l2 1 3 c2p\nlink l3 5 3 c2p\nlink l4 6 2 c2p\nlink l5 3 4 c2p\n"
        "originate 1 10.1.0.0/16\noriginate 4 10.0.0.0/8\n"
        "advertise 1 10.1.0.0/16 l1 community 2:7 med 5\n"
    )
    s = parse_scenario(text)
    state = check_run(s.topology, s.te_config, dumps_checked)
    p1 = Prefix.parse("10.1.0.0/16")
    assert p1 not in state.loc_rib[5]
    assert ingress_map(state, s.topology, 1).entries[5, p1] == UNREACHABLE


def test_renderers_match_the_reference_on_an_unreachable_prefix(dumps_checked):
    # 10.1.0.0/16 is advertised on l1 alone, which is down: nobody but its
    # origin holds a route, and every other AS is unreachable for it.
    text = (
        "as 1 stub\nas 2 transit\nas 3 transit\nas 4 stub\n"
        "link l1 1 2 c2p down\nlink l2 1 3 c2p\nlink l3 4 2 c2p\nlink l4 4 3 c2p\n"
        "originate 1 10.1.0.0/16\noriginate 1 10.2.0.0/16\n"
        "advertise 1 10.1.0.0/16 l1\n"
    )
    s = parse_scenario(text)
    state = check_run(s.topology, s.te_config, dumps_checked)
    entries = ingress_map(state, s.topology, 1).entries
    p1, p2 = Prefix.parse("10.1.0.0/16"), Prefix.parse("10.2.0.0/16")
    assert [entries[src, p1] for src in (2, 3, 4)] == [UNREACHABLE] * 3
    assert [entries[src, p2] for src in (3, 4)] == ["l2", "l2"]
    assert "unreachable" in ingress_csv(entries)
