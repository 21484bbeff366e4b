"""Reference answers computed naively from the corpus model, and the checks
that compare the program's observed outputs against them.

Nothing here imports hg2rdf.  The rules encoded below are the documented
behaviour (README "The model", the ``mapper`` and ``traversal`` docstrings):
routing by predicate, one hypernode per distinct term, one hyperedge per
distinct instance triple, role/datatype/type anchors, subclass closure, and
forward reachability that fires an edge once its head is reached.
"""
from __future__ import annotations

import hashlib
import random
import re
from collections import Counter, deque

from corpus import (
    RDF,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS,
    RDFS_DOMAIN,
    RDFS_LITERAL,
    RDFS_RANGE,
    RDFS_RESOURCE,
    RDFS_SUBCLASSOF,
    Model,
    Zipf,
    uri,
)

BUILTIN_VOCABULARY = (
    RDFS_RESOURCE, RDFS + "Class", RDFS_LITERAL, RDF_PROPERTY, RDF + "Statement",
    RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE,
    RDF + "subject", RDF + "predicate", RDF + "object", RDF + "datatype",
)
#: The built-in classes placed directly under rdfs:Resource.
BUILTIN_SUBCLASSES = (RDFS + "Class", RDFS_LITERAL, RDF_PROPERTY, RDF + "Statement")
ROLE_ANCHORS = (RDF + "subject", RDF + "predicate", RDF + "object")

_ERROR_LINE = re.compile(r"^[^\n]*?:\d+: ([A-Za-z]+): ", re.MULTILINE)
_WARNING_LINE = re.compile(
    r"^warning: (DomainUnsatisfied|RangeUnsatisfied): (?:subject|object) hypernode \d+ "
    r"of <(.*)> is not typed as <(.*)> or a subclass of it$"
)


def key(value: object) -> str:
    """Canonical text of a term or statement tuple; both processes use it."""
    return repr(value)


def digest(keys: list[str]) -> str:
    """Order-free fingerprint of a result set."""
    return hashlib.sha1("\n".join(sorted(keys)).encode("utf-8")).hexdigest()


def error_counts(stderr: str) -> dict[str, int]:
    """Parse errors per ErrorCode in ``path:line: Code: message`` lines."""
    return dict(Counter(_ERROR_LINE.findall(stderr)))


class Reference:
    """Everything the checks need, derived once from a model."""

    def __init__(self, model: Model):
        self.model = model
        self.children: dict[str, list[str]] = {}
        for child in BUILTIN_SUBCLASSES:
            self.children.setdefault(RDFS_RESOURCE, []).append(child)
        for child, parents in model.parents.items():
            for parent in parents:
                self.children.setdefault(parent, []).append(child)

        self.graph_nodes = set(BUILTIN_VOCABULARY)
        self.graph_edges = {(c, RDFS_SUBCLASSOF, RDFS_RESOURCE) for c in BUILTIN_SUBCLASSES}
        for s, p, o in model.schema_triples:
            self.graph_nodes.update((s[1], o[1]))
            self.graph_edges.add((s[1], p[1], o[1]))

        # one hypernode per distinct term, with the anchors its connectors reach
        self.anchors: dict[tuple, set[str]] = {}
        self.by_predicate: dict[tuple, list[tuple]] = {}
        self.by_subject: dict[tuple, list[tuple]] = {}
        for triple in model.instance_triples:
            s, p, o = triple
            for term, role in ((s, ROLE_ANCHORS[0]), (p, ROLE_ANCHORS[1]), (o, ROLE_ANCHORS[2])):
                self.anchors.setdefault(term, set()).add(role)
            self.by_predicate.setdefault(p, []).append(triple)
            self.by_subject.setdefault(s, []).append(triple)
        for term, anchors in self.anchors.items():
            if term[0] == "literal" and term[3] is not None:
                anchors.add(RDF + "datatype")
            elif term[0] == "uri":
                anchors.update(model.types.get(term[1], ()))

        # rdfs:domain / rdfs:range: the first declaration in load order wins
        self.domain: dict[str, str] = {}
        self.range: dict[str, str] = {}
        for s, p, o in model.schema_triples:
            if p[1] == RDFS_DOMAIN:
                self.domain.setdefault(s[1], o[1])
            elif p[1] == RDFS_RANGE:
                self.range.setdefault(s[1], o[1])
        self._closures: dict[str, frozenset[str]] = {}
        self._reach: dict[tuple, dict[tuple, int]] = {}

    # -- structure -----------------------------------------------------------

    def closure(self, cls: str) -> frozenset[str]:
        """The class and every SubClassOf descendant."""
        if cls not in self._closures:
            seen = {cls}
            stack = [cls]
            while stack:
                for child in self.children.get(stack.pop(), ()):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            self._closures[cls] = frozenset(seen)
        return self._closures[cls]

    def stats(self) -> dict[str, int]:
        node_connectors = sum(len(a) for a in self.anchors.values())
        return {
            "hypernodes": len(self.anchors),
            "hyperedges": len(self.model.instance_triples),
            "graph nodes": len(self.graph_nodes),
            "graph edges": len(self.graph_edges),
            "node connectors": node_connectors,
            "edge connectors": len(self.model.instance_triples),
        }

    def errors(self) -> dict[str, int]:
        return dict(Counter(code for _, _, code in self.model.malformed))

    def dot_shape(self) -> dict[str, int]:
        """Line, junction-box and connector-link counts of the DOT export."""
        stats = self.stats()
        return {
            "lines": 9 + stats["hypernodes"] + 4 * stats["hyperedges"] + stats["graph nodes"]
            + stats["graph edges"] + stats["node connectors"] + stats["edge connectors"],
            "boxes": stats["hyperedges"],
            "dashed": stats["node connectors"] + stats["edge connectors"],
        }

    def _typed_within(self, term: tuple, cls: str) -> bool:
        return not self.anchors.get(term, set()).isdisjoint(self.closure(cls))

    def warnings(self) -> dict[tuple[str, str, str], int]:
        """Multiset of (kind, predicate IRI, class IRI) constraint warnings."""
        found: Counter = Counter()
        for s, p, o in self.model.instance_triples:
            predicate = p[1]
            domain = self.domain.get(predicate)
            if domain is not None and not self._typed_within(s, domain):
                found[("DomainUnsatisfied", predicate, domain)] += 1
            range_class = self.range.get(predicate)
            if range_class is not None:
                if o[0] == "literal":
                    satisfied = RDFS_LITERAL in self.closure(range_class)
                else:
                    satisfied = self._typed_within(o, range_class)
                if not satisfied:
                    found[("RangeUnsatisfied", predicate, range_class)] += 1
        return dict(found)

    # -- queries -------------------------------------------------------------

    def statements_about(self, iri: str) -> list[str]:
        return [key(t) for t in self.by_subject.get(uri(iri), ())]

    def instances_of(self, iri: str) -> list[str]:
        if iri not in self.graph_nodes:
            return []
        closure = self.closure(iri)
        return [key(t) for t, anchors in self.anchors.items() if not anchors.isdisjoint(closure)]

    def levels(self, start: tuple) -> dict[tuple, int]:
        """Breadth-first hop count of every term forward-reachable from start."""
        if start not in self._reach:
            level: dict[tuple, int] = {}
            queue = deque([(start, 0)])
            while queue:
                node, hops = queue.popleft()
                for s, _, o in self.by_predicate.get(node, ()):
                    for target in (s, o):
                        if target not in level:
                            level[target] = hops + 1
                            queue.append((target, hops + 1))
            self._reach[start] = level
        return self._reach[start]

    def reachable_from(self, iri: str) -> list[str]:
        return [key(t) for t in self.levels(uri(iri))] if uri(iri) in self.anchors else []

    def answer(self, query: tuple) -> dict:
        """The expected observation for one query of the mix."""
        kind, *args = query
        if kind == "path_exists":
            source, target = uri(args[0]), uri(args[1])
            if source not in self.anchors or target not in self.anchors:
                return {"found": False, "hops": 0}
            if source == target:
                return {"found": True, "hops": 0}
            hops = self.levels(source).get(target)
            return {"found": hops is not None, "hops": hops or 0}
        keys = getattr(self, kind)(args[0])
        return {"count": len(keys), "digest": digest(keys)}


# -- checks: each returns a list of problems, empty when the output is right --


def check_build(observed: dict, ref: Reference) -> list[str]:
    problems = []
    if observed["rc"] != 0:
        problems.append(f"build exited {observed['rc']}")
    if observed["errors"] != ref.errors():
        problems.append(f"parse errors {observed['errors']} != {ref.errors()}")
    return problems


def check_stats(observed: dict, ref: Reference) -> list[str]:
    if observed["rc"] != 0:
        return [f"stats exited {observed['rc']}"]
    counts = {}
    for line in observed["stdout"].splitlines():
        name, _, value = line.partition(":")
        counts[name.strip()] = int(value)
    expected = ref.stats()
    return [] if counts == expected else [f"stats {counts} != {expected}"]


def check_export(observed: dict, ref: Reference) -> list[str]:
    if observed["rc"] != 0:
        return [f"export exited {observed['rc']}"]
    shape = {k: observed[k] for k in ("lines", "boxes", "dashed")}
    expected = ref.dot_shape()
    return [] if shape == expected else [f"dot shape {shape} != {expected}"]


def check_validate(observed: dict, ref: Reference) -> list[str]:
    problems = []
    if observed["rc"] != 0:
        problems.append(f"validate exited {observed['rc']}")
    if observed["errors"] != ref.errors():
        problems.append(f"parse errors {observed['errors']} != {ref.errors()}")
    found: Counter = Counter()
    other = []
    for line in observed["stdout"].splitlines():
        match = _WARNING_LINE.match(line)
        if match:
            found[match.groups()] += 1
        elif line != "ok":
            other.append(line)
    if other:
        problems.append(f"{len(other)} violation lines, first: {other[0]}")
    expected = ref.warnings()
    if dict(found) != expected:
        problems.append(f"{sum(found.values())} warnings, expected {sum(expected.values())}")
    return problems


def check_query(query: tuple, observed: dict, ref: Reference, edges: set[str]) -> list[str]:
    """Compare one answer; a path witness is replayed hop by hop.

    ``edges`` holds the keys of every distinct instance triple.
    """
    expected = ref.answer(query)
    if query[0] != "path_exists":
        return [] if observed == expected else [f"{query}: {observed} != {expected}"]
    if observed["found"] != expected["found"]:
        return [f"{query}: found={observed['found']}, expected {expected['found']}"]
    witness = [tuple(map(tuple, edge)) for edge in observed["witness"]]
    if len(witness) != expected["hops"]:
        return [f"{query}: witness has {len(witness)} hops, shortest is {expected['hops']}"]
    reached = {uri(query[1])}
    for s, p, o in witness:
        if key((s, p, o)) not in edges:
            return [f"{query}: witness edge {(s, p, o)} is not in the corpus"]
        if p not in reached:
            return [f"{query}: witness edge {(s, p, o)} fires from an unreached head"]
        reached = {s, o}
    if witness and uri(query[2]) not in reached:
        return [f"{query}: witness does not end at the target"]
    return []


#: One round of the query mix: 40% statements_about, 20% instances_of, 20%
#: reachable_from (a third each on hub, rare and never-predicate IRIs) and
#: 20% path_exists (half on reachable pairs).  Fixed counts per round keep
#: the cost of a round nearly the same for every seed.
ROUND = (("statements_about", 24), ("instances_of", 12), ("reachable_from", 12),
         ("path_exists", 12))
ROUND_SIZE = sum(n for _, n in ROUND)


def query_mix(corpus, ref: Reference, seed: int, rounds: int) -> list[tuple]:
    """``rounds`` shuffled rounds of queries drawn from ``seed``.

    Subjects are Zipf-skewed entities and classes come from every depth of
    the tree.  Hubs are the two most used predicates, rare ones the less
    used half, and path sources the predicates other than the hubs; those
    three cycle in order, because their reach sets the cost of a query and
    a random pick would make the mix's cost differ from seed to seed."""
    rng = random.Random(seed * 7919 + 17)
    subjects = Zipf(len(corpus.entities), 1.1)
    properties = corpus.properties
    hubs, rare, others = properties[:2], properties[len(properties) // 2:], properties[2:]
    queries: list[tuple] = []
    for round_no in range(rounds):
        batch: list[tuple] = []
        for i in range(ROUND[0][1]):
            batch.append(("statements_about", corpus.entities[subjects.draw(rng)]))
        for i in range(ROUND[1][1]):
            batch.append(("instances_of", rng.choice(corpus.classes)))
        for i in range(ROUND[2][1]):
            n = round_no * ROUND[2][1] // 3 + i // 3
            pool = (hubs[n % len(hubs)], rare[n % len(rare)], rng.choice(corpus.entities))
            batch.append(("reachable_from", pool[i % 3]))
        for i in range(ROUND[3][1]):
            source = others[(round_no * ROUND[3][1] + i) // 2 % len(others)]
            reach = [t[1] for t in ref.levels(uri(source)) if t[0] == "uri"]
            if i % 2 == 0 and reach:
                target = rng.choice(reach)
            else:
                reached = set(reach)
                target = rng.choice(corpus.entities)
                for _ in range(20):
                    if target not in reached:
                        break
                    target = rng.choice(corpus.entities)
            batch.append(("path_exists", source, target))
        rng.shuffle(batch)
        queries += batch
    return queries
