"""Seeded N-Triples corpus generator and its ground-truth model.

Nothing here imports hg2rdf: the model is what the generator *meant* to
write, so references computed from it are independent of the program under
test.  Terms are plain tuples:

    ("uri", iri)                 ("blank", label)
    ("literal", lexical, language_tag_or_None, datatype_iri_or_None)

and a statement is a ``(subject, predicate, object)`` tuple of terms.  The
same seed always produces byte-identical files.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = RDF + "type"
RDF_PROPERTY = RDF + "Property"
RDFS_SUBCLASSOF = RDFS + "subClassOf"
RDFS_DOMAIN = RDFS + "domain"
RDFS_RANGE = RDFS + "range"
RDFS_RESOURCE = RDFS + "Resource"
RDFS_LITERAL = RDFS + "Literal"

#: The four vocabulary predicates that route an IRI-IRI statement to the
#: graph layer (README, "The model").
SCHEMA_PREDICATES = (RDFS_SUBCLASSOF, RDF_TYPE, RDFS_DOMAIN, RDFS_RANGE)

#: Every malformed-line template, keyed by the ErrorCode value the N-Triples
#: grammar in ``ntriples.py``'s docstring makes it produce.
MALFORMED = {
    "MissingTerminalDot": "<{s}> <{p}> <{o}>",
    "UnterminatedIri": "<{s}> <{p}> <{o}",
    "UnterminatedLiteral": '<{s}> <{p}> "never closed .',
    "LiteralAsSubject": '"literal" <{p}> <{o}> .',
    "BlankAsPredicate": "<{s}> _:b0 <{o}> .",
    "BadEscape": '<{s}> <{p}> "bad \\q escape" .',
    "MissingObject": "<{s}> <{p}> .",
    "UnexpectedToken": "<{s}> <{p}> <{o}> . trailing",
}
ERROR_CODES = tuple(MALFORMED)

_DATATYPES = ("integer", "decimal", "date", "boolean", "string")
_ESCAPE_PIECES = ('say "hi"', "back\\slash", "two\nlines", "tab\there", "café",
                  "naïve", "Zürich", "€uro", "crlf\r\n")
_WORDS = ("alpha", "beta", "gamma", "delta", "river", "stone", "graph", "edge",
          "node", "query", "schema", "class")
_LANGS = ("en", "de", "fr", "en-gb")

#: Typed entities with a second type, so instances_of and the domain/range
#: check meet entities in two subclass trees; the same in every workload.
DOUBLE_TYPED_SHARE = 0.05
#: Instance lines repeated verbatim, so interning and the stats counts see
#: duplicates; the same in every workload.
DUPLICATE_SHARE = 0.01


@dataclass(frozen=True)
class Shape:
    """The knobs of one corpus, with the reason they have these values."""

    lines: int                   # content lines, schema + instance + malformed
    classes: int                 # user classes under one root
    max_depth: int               # longest subclass chain below the root
    chain_bias: float            # chance a new class extends the previous one
    properties: int              # half datatype, half object properties
    range_share: float           # properties that declare a range
    entities: int
    untyped_share: float         # entities with no rdf:type
    datatyped_share: float       # instance lines with a datatyped literal
    escaped_share: float         # instance lines with an escaped literal
    lang_share: float            # instance lines with a language-tagged literal
    meta_share: float            # property-about-property instance lines
    blank_share: float           # instance subjects that are blank nodes
    untyped_subject_share: float  # instance subjects drawn from untyped entities
    malformed_share: float
    split_vocabulary: bool       # schema lines in vocab.nt, the rest in data.nt
    why: str


SHAPES: dict[str, Shape] = {
    "ingest": Shape(
        lines=20000, classes=200, max_depth=4, chain_bias=0.3, properties=50,
        range_share=1.0, entities=2500, untyped_share=0.08,
        datatyped_share=0.40, escaped_share=0.02, lang_share=0.08, meta_share=0.0,
        blank_share=0.02, untyped_subject_share=0.0,
        malformed_share=0.005, split_vocabulary=False,
        why="instance-heavy: about 1% class hierarchy, 50 properties with domain and "
        "range, typed entities and 40% datatyped literals, so parse, interning, "
        "connector generation, serialize, deserialize and DOT do the work",
    ),
    "validate": Shape(
        lines=5000, classes=300, max_depth=6, chain_bias=0.85, properties=200,
        range_share=0.85, entities=700, untyped_share=0.10,
        datatyped_share=0.15, escaped_share=0.20, lang_share=0.05, meta_share=0.0,
        blank_share=0.01, untyped_subject_share=0.10,
        malformed_share=0.01, split_vocabulary=True,
        why="schema-heavy: 6-level subclass chains and 200 constrained properties "
        "make check_domain_range (quadratic at the seed) dominate; 20% escaped "
        "literals and 1% malformed lines take the parser's slow path; 10% untyped "
        "subjects produce warnings",
    ),
}
SHAPES["query"] = replace(
    SHAPES["ingest"], meta_share=0.02,
    why="the ingest shape plus 2% property-about-property statements, so "
    "forward reachability chains over several hops with reach that varies "
    "by predicate",
)


def scaled(shape: Shape, factor: float) -> Shape:
    """The same shape with every size multiplied by ``factor``."""
    return replace(
        shape,
        lines=max(40, round(shape.lines * factor)),
        classes=max(4, round(shape.classes * factor)),
        properties=max(8, round(shape.properties * factor)),
        entities=max(12, round(shape.entities * factor)),
    )


def uri(iri: str) -> tuple:
    return ("uri", iri)


def entity_iri(index: int) -> str:
    return f"http://example.org/e/{index}"


def property_iri(index: int) -> str:
    return f"http://example.org/p/{index}"


def class_iri(index: int) -> str:
    return f"http://example.org/c/{index}"


@dataclass
class Model:
    """Ground truth for one corpus, derived naively from what was written.

    ``entries`` lists every content line as ``(file, line_no, item)`` where
    ``item`` is a statement tuple or, for a malformed line, its ErrorCode
    value.  Everything else is computed from ``entries``.
    """

    entries: list[tuple[str, int, object]]
    statements: list[tuple] = field(init=False)
    malformed: list[tuple[str, int, str]] = field(init=False)
    instance_triples: dict[tuple, None] = field(init=False)  # distinct, first-seen order
    schema_triples: dict[tuple, None] = field(init=False)
    types: dict[str, list[str]] = field(init=False)      # entity IRI -> declared classes
    parents: dict[str, list[str]] = field(init=False)    # class IRI -> superclasses

    def __post_init__(self) -> None:
        self.statements = [item for _, _, item in self.entries if isinstance(item, tuple)]
        self.malformed = [(f, n, item) for f, n, item in self.entries if isinstance(item, str)]
        self.instance_triples = {}
        self.schema_triples = {}
        self.types = {}
        self.parents = {}
        for triple in self.statements:
            s, p, o = triple
            if p[1] in SCHEMA_PREDICATES and s[0] == "uri" and o[0] == "uri":
                self.schema_triples.setdefault(triple, None)
            else:
                self.instance_triples.setdefault(triple, None)
        for s, p, o in self.schema_triples:
            if p[1] == RDF_TYPE:
                self.types.setdefault(s[1], []).append(o[1])
            elif p[1] == RDFS_SUBCLASSOF:
                self.parents.setdefault(s[1], []).append(o[1])


@dataclass
class Corpus:
    files: dict[str, str]        # file name -> text
    inputs: list[str]            # file names passed as --input
    schema_inputs: list[str]     # file names passed as --schema
    model: Model
    classes: list[str]           # user classes, root first
    properties: list[str]        # index order; p/0 and p/1 are the hubs
    entities: list[str]


def _escape_literal(text: str, rng: random.Random) -> str:
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) > 0x7E and rng.random() < 0.5:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _render(term: tuple, rng: random.Random) -> str:
    if term[0] == "uri":
        return f"<{term[1]}>"
    if term[0] == "blank":
        return f"_:{term[1]}"
    _, lexical, lang, datatype = term
    text = f'"{_escape_literal(lexical, rng)}"'
    if lang is not None:
        return f"{text}@{lang}"
    if datatype is not None:
        return f"{text}^^<{datatype}>"
    return text


class Zipf:
    """Draws indexes 0..n-1 with weight 1/(i+1)**s; index 0 is the hub."""

    def __init__(self, n: int, s: float = 1.0):
        total = 0.0
        self.cumulative = []
        for i in range(n):
            total += 1.0 / (i + 1) ** s
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> int:
        return bisect_left(self.cumulative, rng.random() * self.cumulative[-1])


def _literal(kind: str, rng: random.Random) -> tuple:
    if kind == "datatyped":
        datatype = rng.choice(_DATATYPES)
        if datatype == "integer":
            lexical = str(rng.randrange(100000))
        elif datatype == "decimal":
            lexical = f"{rng.randrange(10000)}.{rng.randrange(100):02d}"
        elif datatype == "date":
            lexical = f"{rng.randrange(1990, 2024)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
        elif datatype == "boolean":
            lexical = rng.choice(("true", "false"))
        else:
            lexical = " ".join(rng.choice(_WORDS) for _ in range(3))
        return ("literal", lexical, None, XSD + datatype)
    if kind == "escaped":
        lexical = f"{rng.choice(_ESCAPE_PIECES)} {rng.randrange(100000)} {rng.choice(_ESCAPE_PIECES)}"
        return ("literal", lexical, None, None)
    words = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 5)))
    if kind == "lang":
        return ("literal", words, rng.choice(_LANGS), None)
    return ("literal", f"{words} {rng.randrange(1000)}", None, None)


def generate(shape: Shape, seed: int) -> Corpus:
    """Write a corpus of ``shape`` from ``seed``; returns texts and model."""
    rng = random.Random(seed)

    # Class tree: a root under rdfs:Resource, then classes that either extend
    # the previous class (making chains) or hang under a random shallower one.
    classes = [class_iri(0)]
    depth = {class_iri(0): 0}
    subclass_lines = [(uri(class_iri(0)), uri(RDFS_SUBCLASSOF), uri(RDFS_RESOURCE))]
    for index in range(1, shape.classes):
        previous = classes[-1]
        if depth[previous] < shape.max_depth and rng.random() < shape.chain_bias:
            parent = previous
        else:
            parent = rng.choice([c for c in classes if depth[c] < shape.max_depth])
        name = class_iri(index)
        classes.append(name)
        depth[name] = depth[parent] + 1
        subclass_lines.append((uri(name), uri(RDFS_SUBCLASSOF), uri(parent)))
    ancestors = {classes[0]: [classes[0]]}
    for s, _, o in subclass_lines[1:]:
        ancestors[s[1]] = [s[1], *ancestors[o[1]]]

    # Entities and their declared types; extent[c] lists entities typed
    # within c's subclass closure.
    entities = [entity_iri(i) for i in range(shape.entities)]
    type_lines = []
    extent: dict[str, list[int]] = {c: [] for c in classes}
    untyped = []
    for index, name in enumerate(entities):
        if rng.random() < shape.untyped_share:
            untyped.append(index)
            continue
        declared = [rng.choice(classes)]
        if rng.random() < DOUBLE_TYPED_SHARE:
            declared.append(rng.choice(classes))
        for cls in dict.fromkeys(declared):
            type_lines.append((uri(name), uri(RDF_TYPE), uri(cls)))
            for ancestor in ancestors[cls]:
                if not extent[ancestor] or extent[ancestor][-1] != index:
                    extent[ancestor].append(index)
    if not untyped:
        untyped.append(len(entities) - 1)
    # Constraints name general classes (the root and its children) while
    # entities are typed with specific ones, so checks walk the subclass
    # chains and every entity is a candidate subject of some property.
    general = [c for c in classes if depth[c] <= 1 and extent[c]]

    # Properties alternate datatype/object so both kinds have hubs.
    properties = [property_iri(i) for i in range(shape.properties)]
    datatype_props = properties[0::2]
    object_props = properties[1::2]
    domain = {p: rng.choice(general) for p in properties}
    range_of: dict[str, str] = {}
    for p in properties:
        if rng.random() < shape.range_share:
            range_of[p] = RDFS_LITERAL if p in datatype_props else rng.choice(general)
    property_lines = []
    for p in properties:
        property_lines.append((uri(p), uri(RDF_TYPE), uri(RDF_PROPERTY)))
        property_lines.append((uri(p), uri(RDFS_DOMAIN), uri(domain[p])))
        if p in range_of:
            property_lines.append((uri(p), uri(RDFS_RANGE), uri(range_of[p])))

    # Instance statements fill whatever the schema lines left over.
    schema_count = len(subclass_lines) + len(type_lines) + len(property_lines)
    malformed_count = round(shape.lines * shape.malformed_share)
    instance_count = shape.lines - schema_count - malformed_count
    if instance_count < 1:
        raise ValueError(f"shape leaves no room for instance lines: {shape}")
    pick_datatype = Zipf(len(datatype_props))
    pick_object = Zipf(len(object_props))
    blanks = max(1, shape.entities // 20)

    def subject_for(p: str) -> tuple:
        roll = rng.random()
        if roll < shape.blank_share:
            return ("blank", f"b{rng.randrange(blanks)}")
        if roll < shape.blank_share + shape.untyped_subject_share:
            return uri(entities[rng.choice(untyped)])
        return uri(entities[rng.choice(extent[domain[p]])])

    def pick_kind() -> str:
        roll = rng.random()
        for kind, share in (("datatyped", shape.datatyped_share),
                            ("escaped", shape.escaped_share),
                            ("lang", shape.lang_share),
                            ("meta", shape.meta_share)):
            if roll < share:
                return kind
            roll -= share
        return "plain" if rng.random() < 0.04 else "object"

    def new_statement(kind: str) -> tuple:
        if kind == "meta":
            # <p_a> <p_i> <p_b> with a, b above i: reachability from p_i runs
            # up the property list, so low-index hubs reach far and the
            # highest-index properties reach only their own tails.
            i = rng.randrange(len(properties) - 1)
            top = min(len(properties) - 1, i + 3)
            a, b = rng.randint(i + 1, top), rng.randint(i + 1, top)
            return (uri(properties[a]), uri(properties[i]), uri(properties[b]))
        if kind != "object":
            p = datatype_props[pick_datatype.draw(rng)]
            return (subject_for(p), uri(p), _literal(kind, rng))
        p = object_props[pick_object.draw(rng)]
        if rng.random() < shape.blank_share:
            obj = ("blank", f"b{rng.randrange(blanks)}")
        elif p in range_of and rng.random() >= shape.untyped_subject_share / 2:
            obj = uri(entities[rng.choice(extent[range_of[p]])])
        else:
            obj = uri(entities[rng.choice(untyped)])
        return (subject_for(p), uri(p), obj)

    # Repeats come only from DUPLICATE_SHARE, and a collision is redrawn
    # within its kind, so the mix and the amount of work barely vary
    # between seeds.
    instance_lines: list[tuple] = []
    seen: set[tuple] = set()
    for _ in range(instance_count):
        if instance_lines and rng.random() < DUPLICATE_SHARE:
            instance_lines.append(rng.choice(instance_lines))
            continue
        kind = pick_kind()
        for _ in range(50):
            statement = new_statement(kind)
            if statement not in seen:
                break
        seen.add(statement)
        instance_lines.append(statement)

    malformed = [ERROR_CODES[i % len(ERROR_CODES)] for i in range(malformed_count)]

    # Lay the lines out in files.  Statements are rendered once, so a
    # duplicate line is the same bytes as its original.
    rendered: dict[tuple, str] = {}

    def line_for(item: object) -> str:
        if isinstance(item, str):
            s, o = rng.choice(entities), rng.choice(entities)
            return MALFORMED[item].format(s=s, p=rng.choice(properties), o=o)
        if item not in rendered:
            rendered[item] = " ".join(_render(t, rng) for t in item) + " ."
        return rendered[item]

    vocabulary: list[object] = [*subclass_lines, *property_lines]
    data: list[object] = [*type_lines, *instance_lines, *malformed]
    rng.shuffle(data)
    if shape.split_vocabulary:
        layout = {"vocab.nt": vocabulary, "data.nt": data}
        inputs, schema_inputs = ["data.nt"], ["vocab.nt"]
    else:
        everything = vocabulary + data
        rng.shuffle(everything)
        layout = {"corpus.nt": everything}
        inputs, schema_inputs = ["corpus.nt"], []

    files: dict[str, str] = {}
    entries: list[tuple[str, int, object]] = []
    # schema files are parsed first, so the model lists them first
    for name in [*schema_inputs, *inputs]:
        lines = [f"# hg2rdf benchmark corpus {name}, seed {seed}"]
        for item in layout[name]:
            lines.append(line_for(item))
            entries.append((name, len(lines), item))
        files[name] = "\n".join(lines) + "\n"
    return Corpus(files, inputs, schema_inputs, Model(entries), classes, properties, entities)
