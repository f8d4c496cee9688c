"""Line-oriented scenario files: topology + TE config + objectives.

Grammar (UTF-8, `#` starts a comment, blank lines ignored):

    as <asn> <stub|transit>
    link <id> <asn1> <asn2> <c2p|p2p> [down]        # c2p: asn1 is the customer
    originate <asn> <prefix>
    policy <asn> lp <community> <value>             # community sets LP inside <asn>
    policy <asn> prepend <community> <peer-asn|all|region:TAG> <1|2|3>
    policy <asn> suppress <community> <peer-asn|all|region:TAG>
    policy <asn> region <peer-asn> <TAG>
    policy <asn> drops-community-updates
    advertise <asn> <prefix> <link-id> [community <h:l>]... [med <n>]
    lp-override <asn> <neighbor-asn> <lp>           # an AS's own import policy
    objective <dest-asn> <src-asn|*> <dst-prefix> <link-id> [src-prefix <prefix>]

A prefix with no `advertise` line is announced plainly on every up link of
its origin; one `advertise` line switches the prefix to exactly the listed
links.  `policy` and `lp-override` records are the ASes' standing policy,
so they go into the `Topology` (`catalogs`, `lp_overrides`); `advertise`
records alone make up the TE config.  The parser reads the `as` records,
then the others in file order.  It checks each record's syntax (fields,
keywords, numbers, prefixes, communities) and ASN references, and rejects a
record repeated under one key (an AS, an origination, a community in one
rule kind, a region tag, an LP override, a community or MED within one
advertisement); the first such error is raised.  Then link ids and every
other rule are checked, the latter by the validators (`validate_topology`,
`PolicyCatalog.validate`, `check_advertisement`), and the first error in
file order is reported at the record that breaks it.  Every `ScenarioError`
carries a line and column.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from .engine import Advertisement, TeConfig, check_advertisement
from .flows import Flow
from .planner import Objective
from .policies import ALL_UPSTREAMS, PeerSelector, PolicyCatalog, parse_community
from .routes import Community
from .topology import MAX_ASN, MIN_ASN, Link, Prefix, Topology, is_number

_T = TypeVar("_T")
_Word = tuple[str, int, int]  # (text, line, column)
_WORD_RE = re.compile(r"\S+")  # the words str.split() returns: \s is its whitespace


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Scenario(NamedTuple):
    topology: Topology
    te_config: TeConfig
    objectives: tuple[Objective, ...] = ()


def _tokenize(text: str) -> list[list[_Word]]:
    records: list[list[_Word]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        words = [(m[0], line_no, m.start() + 1) for m in _WORD_RE.finditer(line.split("#", 1)[0])]
        if words:
            records.append(words)
    return records


def _fail(word: _Word, msg: str) -> ScenarioError:
    return ScenarioError(msg, word[1], word[2])


def _field(word: _Word, parse: Callable[[str], _T]) -> _T:
    """`parse` applied to the word's text; its ValueError is reported at the word."""
    try:
        return parse(word[0])
    except ValueError as exc:
        raise _fail(word, str(exc)) from exc


def _asn(text: str) -> int:
    if not is_number(text):
        raise ValueError(f"expected an AS number, got {text!r}")
    value = int(text)
    if not MIN_ASN <= value <= MAX_ASN:
        raise ValueError(f"ASN {value} out of range")
    return value


def _number(msg: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if not is_number(text):
            raise ValueError(msg)
        return int(text)
    return parse


_lp_value = _number("LP value must be a non-negative integer")
_prepend_count = _number("prepend count must be a number")


def _expect(words: list[_Word], n: int, what: str) -> None:
    if len(words) != n:
        raise _fail(words[min(n, len(words) - 1)], f"{what}: expected {n} fields, got {len(words)}")


def parse_scenario(text: str) -> Scenario:
    records = _tokenize(text)

    roles: dict[int, str] = {}
    for words in records:
        if words[0][0] != "as":
            continue
        _expect(words, 3, "as record")
        asn = _field(words[1], _asn)
        if asn in roles:
            raise _fail(words[1], f"AS {asn} declared twice")
        role = words[2][0]
        if role not in ("stub", "transit"):
            raise _fail(words[2], f"role must be stub or transit, got {role!r}")
        roles[asn] = role

    def known(text: str) -> int:
        asn = _asn(text)
        if asn not in roles:
            raise ValueError(f"unknown ASN reference {asn}")
        return asn

    def selector(text: str) -> PeerSelector:
        if text == ALL_UPSTREAMS:
            return PeerSelector.all_upstreams()
        if text.startswith("region:"):
            return PeerSelector.for_region(text.split(":", 1)[1])
        return PeerSelector.specific(known(text))

    # The word of the record that introduced each `Finding.subject`; a later
    # record naming the same subject (a repeated link id, a prefix that a
    # second AS originates) replaces it.
    where: dict[tuple, _Word] = {}
    links: list[Link] = []
    originations: dict[int, set[Prefix]] = {}
    # Owner -> its catalog's rules (lp, suppress, prepend, region), and the
    # owners with a drops-community-updates record: each catalog is built
    # once, after the last record.
    catalog_rules: dict[int, tuple[dict, dict, dict, dict]] = {}
    drops: set[int] = set()
    advertisements: list[tuple[Advertisement, _Word]] = []
    lp_overrides: dict[tuple[int, int], int] = {}
    objectives: list[tuple[Objective, _Word]] = []

    def claim(rules: dict, owner: int, word: _Word) -> Community:
        c = _field(word, parse_community)
        if c in rules:
            raise _fail(word, f"community {c} already mapped in AS {owner}'s catalog")
        where["rule", owner, c] = word
        return c

    for words in records:
        kind = words[0][0]
        if kind == "link":
            if len(words) not in (5, 6):
                raise _fail(words[0], "link record: expected 5 or 6 fields")
            a = _field(words[2], known)
            b = _field(words[3], known)
            rel = words[4][0]
            if rel not in ("c2p", "p2p"):
                raise _fail(words[4], f"relationship must be c2p or p2p, got {rel!r}")
            if len(words) == 6 and words[5][0] != "down":
                raise _fail(words[5], f"expected 'down', got {words[5][0]!r}")
            customer = a if rel == "c2p" else None
            links.append(_field(words[1], lambda name: Link(name, a, b, customer, len(words) == 5)))
            where["link", words[1][0]] = words[1]
        elif kind == "originate":
            _expect(words, 3, "originate record")
            prefixes = originations.setdefault(_field(words[1], known), set())
            prefix = _field(words[2], Prefix.parse)
            if prefix in prefixes:
                raise _fail(words[2], f"duplicate origination of {prefix}")
            prefixes.add(prefix)
            where["prefix", prefix] = words[2]
        elif kind == "policy":
            if len(words) < 3:
                raise _fail(words[0], "policy record: too few fields")
            owner = _field(words[1], known)
            if owner not in catalog_rules:
                catalog_rules[owner] = ({}, {}, {}, {})
                where["catalog", owner] = words[1]
            lp_rules, suppress_rules, prepend_rules, region_of = catalog_rules[owner]
            what = words[2][0]
            if what == "lp":
                _expect(words, 5, "policy lp record")
                c = claim(lp_rules, owner, words[3])
                lp_rules[c] = _field(words[4], _lp_value)
            elif what == "prepend":
                _expect(words, 6, "policy prepend record")
                c = claim(prepend_rules, owner, words[3])
                prepend_rules[c] = (_field(words[4], selector), _field(words[5], _prepend_count))
            elif what == "suppress":
                _expect(words, 5, "policy suppress record")
                c = claim(suppress_rules, owner, words[3])
                suppress_rules[c] = _field(words[4], selector)
            elif what == "region":
                _expect(words, 5, "policy region record")
                peer = _field(words[3], known)
                if peer in region_of:
                    raise _fail(words[3], f"region of AS {peer} given twice in AS {owner}'s catalog")
                region_of[peer] = words[4][0]
                where["region", owner, peer] = words[3]
            elif what == "drops-community-updates":
                _expect(words, 3, "policy drops record")
                drops.add(owner)
            else:
                raise _fail(words[2], f"unknown policy kind {what!r}")
        elif kind == "advertise":
            if len(words) < 4:
                raise _fail(words[0], "advertise record: too few fields")
            origin = _field(words[1], known)
            prefix = _field(words[2], Prefix.parse)
            communities: set[Community] = set()
            med: int | None = None
            for i in range(4, len(words), 2):
                word = words[i][0]
                if word == "community":
                    if i + 1 >= len(words):
                        raise _fail(words[i], "community keyword needs a value")
                    c = _field(words[i + 1], parse_community)
                    if c in communities:
                        raise _fail(words[i + 1], f"community {c} given twice")
                    communities.add(c)
                elif word == "med":
                    if i + 1 >= len(words) or not is_number(words[i + 1][0]):
                        raise _fail(words[i], "med keyword needs a non-negative integer")
                    if med is not None:
                        raise _fail(words[i], "med given twice")
                    med = int(words[i + 1][0])
                else:
                    raise _fail(words[i], f"expected 'community' or 'med', got {word!r}")
            ad = Advertisement(origin, prefix, words[3][0], frozenset(communities), med)
            advertisements.append((ad, words[2]))
        elif kind == "lp-override":
            _expect(words, 4, "lp-override record")
            key = (_field(words[1], known), _field(words[2], known))
            if key in lp_overrides:
                raise _fail(words[1], f"lp-override {key[0]} {key[1]} given twice")
            lp_overrides[key] = _field(words[3], _lp_value)
            where[("lp-override", *key)] = words[1]
        elif kind == "objective":
            if len(words) not in (5, 7):
                raise _fail(words[0], "objective record: expected 5 fields (plus optional src-prefix)")
            dest = _field(words[1], known)
            src = None if words[2][0] == "*" else _field(words[2], known)
            dst_prefix = _field(words[3], Prefix.parse)
            if len(words) == 7 and words[5][0] != "src-prefix":
                raise _fail(words[5], f"expected 'src-prefix', got {words[5][0]!r}")
            src_prefix = _field(words[6], Prefix.parse) if len(words) == 7 else None
            flow = Flow(src_prefix, src, dst_prefix, dest)
            objectives.append((Objective(flow, words[4][0]), words[4]))
        elif kind != "as":
            raise _fail(words[0], f"unknown record kind {kind!r}")

    links.sort(key=lambda l: l.id)
    topology = Topology(
        roles=roles,
        links=tuple(links),
        originations={asn: frozenset(ps) for asn, ps in originations.items()},
        catalogs={owner: PolicyCatalog(owner, *r, owner in drops) for owner, r in catalog_rules.items()},
        lp_overrides=lp_overrides,
    )
    # The validators state every semantic rule; report the first error they
    # find, or the first unknown link id, in file order, at the record that
    # breaks the rule.
    errors = [(where[f.subject], f.message) for f in topology.validation.errors]
    link_ids = {link.id for link in links}
    errors += [(w, f"unknown link id {w[0]!r}") for _, w in objectives if w[0] not in link_ids]
    listed: dict[tuple[int, Prefix], dict[str, Advertisement]] = {}
    for ad, word in advertisements:
        try:
            check_advertisement(topology, ad, listed)
        except ValueError as exc:
            errors.append((word, str(exc)))
    if errors:
        raise _fail(*min(errors, key=lambda e: e[0][1:]))
    ads = sorted((ad for ad, _ in advertisements), key=lambda ad: (ad.origin, ad.prefix, ad.link_id))
    return Scenario(topology, TeConfig(tuple(ads)), tuple(o for o, _ in objectives))


def parse_topology(text: str) -> Topology:
    return parse_scenario(text).topology


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form.  parse_scenario(serialize_scenario(s)) == s when
    s is in canonical form: its objectives in canonical order, its links
    sorted by id, each c2p link naming its customer as `a` (the record names
    the customer first), its advertisements in (origin, prefix, link) order,
    and no empty `PolicyCatalog` (which has no record).  Breaking one of the
    last four changes only the form: the text parses back to another
    scenario with the same text.  ValueError for a TE config that withholds
    a prefix everywhere, which no record expresses."""
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
    for (asn, neighbor) in sorted(t.lp_overrides):
        lines.append(f"lp-override {asn} {neighbor} {t.lp_overrides[(asn, neighbor)]}")
    for o in s.objectives:
        src = "*" if o.flow.src_asn is None else str(o.flow.src_asn)
        line = f"objective {o.flow.dst_asn} {src} {o.flow.dst_prefix} {o.required_link}"
        if o.flow.src_prefix is not None:
            line += f" src-prefix {o.flow.src_prefix}"
        lines.append(line)
    return "\n".join(lines) + "\n"
