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
links.  The parser checks each record's syntax (fields, keywords, numbers,
prefixes, communities), resolves its ASN and link references, and rejects a
record repeated under one key (an AS, an origination, a community in one
rule kind, a region tag, an LP override, a community or MED within one
advertisement).  Every other rule is the validators' (`validate_topology`,
`PolicyCatalog.validate`, `check_advertisement`): their first error, in file
order, is reported at the record that breaks it.  Every `ScenarioError`
carries a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Advertisement, TeConfig, check_advertisement
from .flows import Flow
from .planner import Objective
from .policies import ALL_UPSTREAMS, PeerSelector, PolicyCatalog, parse_community
from .routes import Community
from .topology import MAX_ASN, MIN_ASN, Link, Prefix, Topology, is_number


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


def _parse_number(tok: _Token, msg: str) -> int:
    if not is_number(tok.text):
        raise _fail(tok, msg)
    return int(tok.text)


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

    # The token of the record that introduced each `Finding.subject`; a later
    # record naming the same subject (a repeated link id, a prefix that a
    # second AS originates) replaces it.
    where: dict[tuple, _Token] = {}
    links: list[Link] = []
    originations: dict[int, set[Prefix]] = {}
    for tokens in records:
        kind = tokens[0].text
        if kind == "link":
            if len(tokens) not in (5, 6):
                raise _fail(tokens[0], "link record: expected 5 or 6 fields")
            a = known(tokens[2])
            b = known(tokens[3])
            rel = tokens[4].text
            if rel not in ("c2p", "p2p"):
                raise _fail(tokens[4], f"relationship must be c2p or p2p, got {rel!r}")
            up = True
            if len(tokens) == 6:
                if tokens[5].text != "down":
                    raise _fail(tokens[5], f"expected 'down', got {tokens[5].text!r}")
                up = False
            try:
                links.append(Link(tokens[1].text, a, b, a if rel == "c2p" else None, up))
            except ValueError as exc:
                raise _fail(tokens[1], str(exc)) from exc
            where["link", tokens[1].text] = tokens[1]
        elif kind == "originate":
            _expect(tokens, 3, "originate record")
            prefixes = originations.setdefault(known(tokens[1]), set())
            prefix = _parse_prefix(tokens[2])
            if prefix in prefixes:
                raise _fail(tokens[2], f"duplicate origination of {prefix}")
            prefixes.add(prefix)
            where["prefix", prefix] = tokens[2]
    links.sort(key=lambda l: l.id)
    link_ids = {link.id for link in links}

    drafts: dict[int, _CatalogDraft] = {}
    advertisements: list[tuple[Advertisement, _Token]] = []
    lp_overrides: dict[tuple[int, int], int] = {}
    objectives: list[Objective] = []

    def parse_selector(tok: _Token) -> PeerSelector:
        if tok.text == ALL_UPSTREAMS:
            return PeerSelector.all_upstreams()
        if tok.text.startswith("region:"):
            return PeerSelector.for_region(tok.text.split(":", 1)[1])
        return PeerSelector.specific(known(tok))

    def claim(rules: dict, owner: int, tok: _Token) -> Community:
        c = _parse_comm(tok)
        if c in rules:
            raise _fail(tok, f"community {c} already mapped in AS {owner}'s catalog")
        where["rule", owner, c] = tok
        return c

    for tokens in records:
        kind = tokens[0].text
        if kind in ("as", "link", "originate"):
            continue
        if kind == "policy":
            if len(tokens) < 3:
                raise _fail(tokens[0], "policy record: too few fields")
            owner = known(tokens[1])
            if owner not in drafts:
                drafts[owner] = _CatalogDraft(owner)
                where["catalog", owner] = tokens[1]
            draft = drafts[owner]
            what = tokens[2].text
            if what == "lp":
                _expect(tokens, 5, "policy lp record")
                c = claim(draft.lp, owner, tokens[3])
                draft.lp[c] = _parse_number(tokens[4], "LP value must be a non-negative integer")
            elif what == "prepend":
                _expect(tokens, 6, "policy prepend record")
                c = claim(draft.prepend, owner, tokens[3])
                sel = parse_selector(tokens[4])
                draft.prepend[c] = (sel, _parse_number(tokens[5], "prepend count must be a number"))
            elif what == "suppress":
                _expect(tokens, 5, "policy suppress record")
                c = claim(draft.suppress, owner, tokens[3])
                draft.suppress[c] = parse_selector(tokens[4])
            elif what == "region":
                _expect(tokens, 5, "policy region record")
                peer = known(tokens[3])
                if peer in draft.region:
                    raise _fail(tokens[3], f"region of AS {peer} given twice in AS {owner}'s catalog")
                draft.region[peer] = tokens[4].text
                where["region", owner, peer] = tokens[3]
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
            communities: set[Community] = set()
            med: int | None = None
            i = 4
            while i < len(tokens):
                word = tokens[i].text
                if word == "community":
                    if i + 1 >= len(tokens):
                        raise _fail(tokens[i], "community keyword needs a value")
                    c = _parse_comm(tokens[i + 1])
                    if c in communities:
                        raise _fail(tokens[i + 1], f"community {c} given twice")
                    communities.add(c)
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
            ad = Advertisement(origin, prefix, tokens[3].text, frozenset(communities), med)
            advertisements.append((ad, tokens[2]))
        elif kind == "lp-override":
            _expect(tokens, 4, "lp-override record")
            key = (known(tokens[1]), known(tokens[2]))
            if key in lp_overrides:
                raise _fail(tokens[1], f"lp-override {key[0]} {key[1]} given twice")
            lp_overrides[key] = _parse_number(tokens[3], "LP value must be a non-negative integer")
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

    topology = Topology(
        roles=roles,
        links=tuple(links),
        originations={asn: frozenset(ps) for asn, ps in originations.items()},
        catalogs={owner: draft.build() for owner, draft in drafts.items()},
    )
    # The validators state every semantic rule; report the first error they
    # find, in file order, at the record that breaks the rule.
    errors = [(where[f.subject], f.message) for f in topology.validation.errors]
    seen: set[tuple[int, Prefix, str]] = set()
    for ad, tok in advertisements:
        try:
            check_advertisement(topology, ad, seen)
        except ValueError as exc:
            errors.append((tok, str(exc)))
    if errors:
        tok, message = min(errors, key=lambda e: (e[0].line, e[0].col))
        raise _fail(tok, message)
    ads = sorted((ad for ad, _ in advertisements), key=lambda ad: (ad.origin, ad.prefix, ad.link_id))
    return Scenario(topology, TeConfig(tuple(ads), lp_overrides), tuple(objectives))


def parse_topology(text: str) -> Topology:
    return parse_scenario(text).topology


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form.  parse_scenario(serialize_scenario(s)) == s when
    s is in canonical form: its objectives in canonical order, its links
    sorted by id, its advertisements in (origin, prefix, link) order, and no
    empty `PolicyCatalog` (which has no record).  Breaking one of the last
    three changes only the form: the text parses back to another scenario
    with the same text.  ValueError for a TE config that withholds a prefix everywhere, which no
    record expresses."""
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
        for c in sorted(cat.lp_rules):
            lines.append(f"policy {owner} lp {c} {cat.lp_rules[c]}")
        for c in sorted(cat.prepend_rules):
            sel, count = cat.prepend_rules[c]
            lines.append(f"policy {owner} prepend {c} {sel} {count}")
        for c in sorted(cat.suppress_rules):
            lines.append(f"policy {owner} suppress {c} {cat.suppress_rules[c]}")
        for asn in sorted(cat.region_of):
            lines.append(f"policy {owner} region {asn} {cat.region_of[asn]}")
        if cat.drops_community_updates:
            lines.append(f"policy {owner} drops-community-updates")
    for ad in sorted(s.te_config.advertisements, key=lambda ad: (ad.origin, ad.prefix, ad.link_id)):
        parts = [f"advertise {ad.origin} {ad.prefix} {ad.link_id}"]
        for c in sorted(ad.communities):
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
