"""Line-oriented scenario files: topology + TE config + objectives.

Grammar (UTF-8, `#` starts a comment, blank lines ignored):

    as <asn> <stub|transit>
    link <id> <asn1> <asn2> <c2p|p2p> [down]        # c2p: asn1 is the customer
    originate <asn> <prefix>
    policy <asn> lp <community> <value>
    policy <asn> prepend <community> <peer-asn|all|region:TAG> <1|2|3>
    policy <asn> suppress <community> <peer-asn|all|region:TAG>
    policy <asn> region <peer-asn> <TAG>
    policy <asn> drops-community-updates
    advertise <asn> <prefix> <link-id> [community <h:l>]... [med <n>]
    lp-override <asn> <neighbor-asn> <lp>
    objective <dest-asn> <src-asn|*> <dst-prefix> <link-id> [src-prefix <prefix>]

A prefix with no `advertise` line is announced plainly on every up link of
its origin; one `advertise` line switches the prefix to exactly the listed
links.  Every record is checked while parsing and violations carry the line
and column where they occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Advertisement, TeConfig
from .flows import Flow
from .planner import Objective
from .policies import ALL_UPSTREAMS, PeerSelector, PolicyCatalog, parse_community
from .routes import COMMUNITY_BUDGET, Community
from .topology import (
    MAX_ASN,
    MIN_ASN,
    Link,
    Prefix,
    Topology,
    is_number,
)


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    te_config: TeConfig
    objectives: tuple[Objective, ...] = ()


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[list[_Token]]:
    records: list[list[_Token]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens: list[_Token] = []
        col = 0
        for word in line.split():
            col = line.index(word, col)
            tokens.append(_Token(word, line_no, col + 1))
            col += len(word)
        if tokens:
            records.append(tokens)
    return records


def _fail(tok: _Token, msg: str) -> ScenarioError:
    return ScenarioError(msg, tok.line, tok.col)


def _parse_asn(tok: _Token) -> int:
    if not is_number(tok.text):
        raise _fail(tok, f"expected an AS number, got {tok.text!r}")
    value = int(tok.text)
    if not MIN_ASN <= value <= MAX_ASN:
        raise _fail(tok, f"ASN {value} out of range")
    return value


def _parse_prefix(tok: _Token) -> Prefix:
    try:
        return Prefix.parse(tok.text)
    except ValueError as exc:
        raise _fail(tok, str(exc)) from exc


def _parse_comm(tok: _Token) -> Community:
    try:
        return parse_community(tok.text)
    except ValueError as exc:
        raise _fail(tok, str(exc)) from exc


def _expect(tokens: list[_Token], n: int, what: str) -> None:
    if len(tokens) != n:
        tok = tokens[min(n, len(tokens) - 1)]
        raise _fail(tok, f"{what}: expected {n} fields, got {len(tokens)}")


class _CatalogDraft:
    def __init__(self, owner: int):
        self.owner = owner
        self.lp: dict[Community, int] = {}
        self.suppress: dict[Community, PeerSelector] = {}
        self.prepend: dict[Community, tuple[PeerSelector, int]] = {}
        self.region: dict[int, str] = {}
        self.drops = False

    def claim(self, c: Community, tok: _Token) -> None:
        if c in self.lp or c in self.suppress or c in self.prepend:
            raise _fail(tok, f"community {c} already mapped in AS {self.owner}'s catalog")

    def build(self) -> PolicyCatalog:
        return PolicyCatalog(self.owner, self.lp, self.suppress, self.prepend, self.region, self.drops)


def parse_scenario(text: str) -> Scenario:
    records = _tokenize(text)

    roles: dict[int, str] = {}
    for tokens in records:
        if tokens[0].text != "as":
            continue
        _expect(tokens, 3, "as record")
        asn = _parse_asn(tokens[1])
        if asn in roles:
            raise _fail(tokens[1], f"AS {asn} declared twice")
        role = tokens[2].text
        if role not in ("stub", "transit"):
            raise _fail(tokens[2], f"role must be stub or transit, got {role!r}")
        roles[asn] = role

    def known(tok: _Token) -> int:
        asn = _parse_asn(tok)
        if asn not in roles:
            raise _fail(tok, f"unknown ASN reference {asn}")
        return asn

    links: list[Link] = []
    link_ids: set[str] = set()
    originations: dict[int, set[Prefix]] = {}
    prefix_owner: dict[Prefix, int] = {}
    for tokens in records:
        kind = tokens[0].text
        if kind == "link":
            if len(tokens) not in (5, 6):
                raise _fail(tokens[0], "link record: expected 5 or 6 fields")
            link_id = tokens[1].text
            if link_id in link_ids:
                raise _fail(tokens[1], f"duplicate link id {link_id!r}")
            if link_id == "local":
                raise _fail(tokens[1], "'local' is reserved and cannot name a link")
            a = known(tokens[2])
            b = known(tokens[3])
            if a == b:
                raise _fail(tokens[3], "link endpoints must differ")
            rel = tokens[4].text
            if rel not in ("c2p", "p2p"):
                raise _fail(tokens[4], f"relationship must be c2p or p2p, got {rel!r}")
            up = True
            if len(tokens) == 6:
                if tokens[5].text != "down":
                    raise _fail(tokens[5], f"expected 'down', got {tokens[5].text!r}")
                up = False
            links.append(Link(link_id, a, b, a if rel == "c2p" else None, up))
            link_ids.add(link_id)
        elif kind == "originate":
            _expect(tokens, 3, "originate record")
            asn = known(tokens[1])
            prefix = _parse_prefix(tokens[2])
            if prefix in prefix_owner:
                owner = prefix_owner[prefix]
                if owner != asn:
                    raise _fail(tokens[2], f"prefix {prefix} already originated by AS {owner}")
                raise _fail(tokens[2], f"duplicate origination of {prefix}")
            prefix_owner[prefix] = asn
            originations.setdefault(asn, set()).add(prefix)

    links.sort(key=lambda l: l.id)
    neighbor_sets: dict[int, set[int]] = {asn: set() for asn in roles}
    for link in links:
        a, b = link.endpoints()
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)

    drafts: dict[int, _CatalogDraft] = {}
    advertisements: list[Advertisement] = []
    ad_keys: set[tuple[int, Prefix, str]] = set()
    lp_overrides: dict[tuple[int, int], int] = {}
    objectives: list[Objective] = []

    def parse_selector(tok: _Token, owner: int) -> PeerSelector:
        if tok.text == ALL_UPSTREAMS:
            return PeerSelector.all_upstreams()
        if tok.text.startswith("region:"):
            tag = tok.text.split(":", 1)[1]
            if not tag:
                raise _fail(tok, "empty region tag")
            return PeerSelector.for_region(tag)
        asn = known(tok)
        if asn not in neighbor_sets[owner]:
            raise _fail(tok, f"AS {asn} is not a neighbor of AS {owner}")
        return PeerSelector.specific(asn)

    for tokens in records:
        kind = tokens[0].text
        if kind in ("as", "link", "originate"):
            continue
        if kind == "policy":
            if len(tokens) < 3:
                raise _fail(tokens[0], "policy record: too few fields")
            owner = known(tokens[1])
            if roles[owner] != "transit":
                raise _fail(tokens[1], f"catalog on non-transit AS {owner}")
            draft = drafts.setdefault(owner, _CatalogDraft(owner))
            what = tokens[2].text
            if what == "lp":
                _expect(tokens, 5, "policy lp record")
                c = _parse_comm(tokens[3])
                draft.claim(c, tokens[3])
                if not is_number(tokens[4].text):
                    raise _fail(tokens[4], "LP value must be a non-negative integer")
                draft.lp[c] = int(tokens[4].text)
            elif what == "prepend":
                _expect(tokens, 6, "policy prepend record")
                c = _parse_comm(tokens[3])
                draft.claim(c, tokens[3])
                sel = parse_selector(tokens[4], owner)
                if tokens[5].text not in ("1", "2", "3"):
                    raise _fail(tokens[5], "prepend count must be 1, 2 or 3")
                draft.prepend[c] = (sel, int(tokens[5].text))
            elif what == "suppress":
                _expect(tokens, 5, "policy suppress record")
                c = _parse_comm(tokens[3])
                draft.claim(c, tokens[3])
                draft.suppress[c] = parse_selector(tokens[4], owner)
            elif what == "region":
                _expect(tokens, 5, "policy region record")
                peer = known(tokens[3])
                if peer not in neighbor_sets[owner]:
                    raise _fail(tokens[3], f"AS {peer} is not a neighbor of AS {owner}")
                draft.region[peer] = tokens[4].text
            elif what == "drops-community-updates":
                _expect(tokens, 3, "policy drops record")
                draft.drops = True
            else:
                raise _fail(tokens[2], f"unknown policy kind {what!r}")
        elif kind == "advertise":
            if len(tokens) < 4:
                raise _fail(tokens[0], "advertise record: too few fields")
            origin = known(tokens[1])
            prefix = _parse_prefix(tokens[2])
            link_id = tokens[3].text
            if link_id not in link_ids:
                raise _fail(tokens[3], f"unknown link id {link_id!r}")
            link = next(l for l in links if l.id == link_id)
            if origin not in link.endpoints():
                raise _fail(tokens[3], f"AS {origin} is not on link {link_id}")
            if not any(p.contains(prefix) for p in originations.get(origin, ())):
                raise _fail(tokens[2], f"{prefix} is outside AS {origin}'s originated space")
            communities: set[Community] = set()
            med: int | None = None
            i = 4
            while i < len(tokens):
                word = tokens[i].text
                if word == "community":
                    if i + 1 >= len(tokens):
                        raise _fail(tokens[i], "community keyword needs a value")
                    communities.add(_parse_comm(tokens[i + 1]))
                    i += 2
                elif word == "med":
                    if i + 1 >= len(tokens) or not is_number(tokens[i + 1].text):
                        raise _fail(tokens[i], "med keyword needs a non-negative integer")
                    if med is not None:
                        raise _fail(tokens[i], "med given twice")
                    med = int(tokens[i + 1].text)
                    i += 2
                else:
                    raise _fail(tokens[i], f"expected 'community' or 'med', got {word!r}")
            if len(communities) > COMMUNITY_BUDGET:
                raise _fail(tokens[2], f"more than {COMMUNITY_BUDGET} communities on one advertisement")
            key = (origin, prefix, link_id)
            if key in ad_keys:
                raise _fail(tokens[2], f"duplicate advertisement of {prefix} on {link_id}")
            ad_keys.add(key)
            advertisements.append(Advertisement(origin, prefix, link_id, frozenset(communities), med))
        elif kind == "lp-override":
            _expect(tokens, 4, "lp-override record")
            asn = known(tokens[1])
            neighbor = known(tokens[2])
            if not is_number(tokens[3].text):
                raise _fail(tokens[3], "LP value must be a non-negative integer")
            lp_overrides[(asn, neighbor)] = int(tokens[3].text)
        elif kind == "objective":
            if len(tokens) not in (5, 7):
                raise _fail(tokens[0], "objective record: expected 5 fields (plus optional src-prefix)")
            dest = known(tokens[1])
            src: int | None = None
            if tokens[2].text != "*":
                src = known(tokens[2])
            dst_prefix = _parse_prefix(tokens[3])
            link_id = tokens[4].text
            if link_id not in link_ids:
                raise _fail(tokens[4], f"unknown link id {link_id!r}")
            src_prefix: Prefix | None = None
            if len(tokens) == 7:
                if tokens[5].text != "src-prefix":
                    raise _fail(tokens[5], f"expected 'src-prefix', got {tokens[5].text!r}")
                src_prefix = _parse_prefix(tokens[6])
            flow = Flow(src_prefix, src, dst_prefix, dest)
            objectives.append(Objective(flow, link_id))
        else:
            raise _fail(tokens[0], f"unknown record kind {kind!r}")

    catalogs = {owner: draft.build() for owner, draft in drafts.items()}
    topology = Topology(
        roles=roles,
        links=tuple(links),
        originations={asn: frozenset(ps) for asn, ps in originations.items()},
        catalogs=catalogs,
    )
    report = topology.validation
    if not report.ok():  # parser checks should make this unreachable
        raise ScenarioError("; ".join(f.message for f in report.errors), 0, 0)
    advertisements.sort(key=lambda ad: (ad.origin, ad.prefix, ad.link_id))
    te = TeConfig(tuple(advertisements), lp_overrides)
    te.validate(topology)
    return Scenario(topology, te, tuple(objectives))


def parse_topology(text: str) -> Topology:
    return parse_scenario(text).topology


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(s)) == s when
    s's objectives are already in canonical order.  ValueError for a TE
    config that withholds a prefix everywhere, which no record expresses."""
    if s.te_config.withheld:
        raise ValueError("a prefix withheld on every link has no scenario record")
    t = s.topology
    lines: list[str] = []
    for asn in sorted(t.roles):
        lines.append(f"as {asn} {t.roles[asn]}")
    for link in sorted(t.links, key=lambda l: l.id):
        rel = "p2p" if link.customer is None else "c2p"
        a, b = (link.a, link.b)
        if link.customer is not None and link.customer != a:
            a, b = b, a
        suffix = "" if link.up else " down"
        lines.append(f"link {link.id} {a} {b} {rel}{suffix}")
    for asn in sorted(t.originations):
        for p in sorted(t.originated_by(asn)):
            lines.append(f"originate {asn} {p}")
    for owner in sorted(t.catalogs):
        cat = t.catalogs[owner]
        for c in sorted(cat.lp_rules, key=Community.sort_key):
            lines.append(f"policy {owner} lp {c} {cat.lp_rules[c]}")
        for c in sorted(cat.prepend_rules, key=Community.sort_key):
            sel, count = cat.prepend_rules[c]
            lines.append(f"policy {owner} prepend {c} {sel} {count}")
        for c in sorted(cat.suppress_rules, key=Community.sort_key):
            lines.append(f"policy {owner} suppress {c} {cat.suppress_rules[c]}")
        for asn in sorted(cat.region_of):
            lines.append(f"policy {owner} region {asn} {cat.region_of[asn]}")
        if cat.drops_community_updates:
            lines.append(f"policy {owner} drops-community-updates")
    for ad in sorted(s.te_config.advertisements, key=lambda ad: (ad.origin, ad.prefix, ad.link_id)):
        parts = [f"advertise {ad.origin} {ad.prefix} {ad.link_id}"]
        for c in sorted(ad.communities, key=Community.sort_key):
            parts.append(f"community {c}")
        if ad.med is not None:
            parts.append(f"med {ad.med}")
        lines.append(" ".join(parts))
    for (asn, neighbor) in sorted(s.te_config.lp_overrides):
        lines.append(f"lp-override {asn} {neighbor} {s.te_config.lp_overrides[(asn, neighbor)]}")
    for o in s.objectives:
        src = "*" if o.flow.src_asn is None else str(o.flow.src_asn)
        line = f"objective {o.flow.dst_asn} {src} {o.flow.dst_prefix} {o.required_link}"
        if o.flow.src_prefix is not None:
            line += f" src-prefix {o.flow.src_prefix}"
        lines.append(line)
    return "\n".join(lines) + "\n"
