"""The JSON documents morsecert reads, as one schema, and their one parse.

`REPORT` is the report, and `READ_REPORT` one whose verdicts section was
read from its bytes; `POLYTOPE`, `MOVES` and `STATE` are the generic
inputs.  `parse` checks a document once, before anything reads it, a list's
elements all at once, field by field, and raises InputError naming the
first value that breaks it by its JSON path, as in `verdicts.rows[3].face:
expected a list of strs, got int`.  Code after it reads values of fixed
JSON kinds (an int is never a bool), so `==` compares them exactly; which
optional key a claim needs, and every value, is the reader's to check.
"""

from __future__ import annotations

from itertools import chain

from .errors import InputError

_KINDS = {int: "int", float: "float", str: "str", bool: "bool", type(None): "null",
          list: "list", dict: "object"}


class _Mismatch(Exception):
    """A value that breaks its schema, at the keys in `path`, innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list = []


def _expected(noun: str, value) -> _Mismatch:
    a = "an" if noun[0] in "aeiou" else "a"
    return _Mismatch(f"expected {a} {noun}, got {_KINDS.get(type(value), type(value).__name__)}")


def _plural(noun: str) -> str:
    head, _, tail = noun.partition(" ")
    return f"{head}s {tail}".rstrip()


class _Kind:
    noun = "object"

    def parse_items(self, values, keys=None):
        """Parse each element of the list `values`, whose keys are `keys`,
        by default their positions.  Each kind's `_at_once` checks them all
        at once; where it cannot, or finds a mismatch, `_walk` names it."""
        try:
            if self._at_once(values):
                return
        except _Mismatch:
            pass
        self._walk(values, keys)

    def _walk(self, values, keys):
        for i, value in enumerate(values):
            try:
                self.parse(value)
            except _Mismatch as exc:
                exc.path.append(i if keys is None else keys[i])
                raise


class Leaf(_Kind):
    """A value of one of `types`, checked by type alone."""

    def __init__(self, noun: str, *types):
        self.noun, self.types = noun, frozenset(types)

    def parse(self, value):
        if type(value) not in self.types:
            raise _expected(self.noun, value)

    def _at_once(self, values) -> bool:
        return self.types.issuperset(map(type, values))


class ListOf(_Kind):
    form, size = "list", None

    def __init__(self, item: _Kind):
        self.item, self.noun = item, f"{self.form} of {_plural(item.noun)}"

    def parse(self, value):
        if type(value) is not list:
            raise _expected(self.noun, value)
        if self.size is not None and len(value) != self.size:
            raise _Mismatch(f"expected a {self.noun}, got a list of {len(value)}")
        self.item.parse_items(value)

    def _at_once(self, values) -> bool:
        if not (_LIST.issuperset(map(type, values))
                and (self.size is None or {self.size}.issuperset(map(len, values)))):
            return False
        self.item.parse_items(list(chain.from_iterable(values)))
        return True


class Pair(ListOf):
    """A list of two values (`size`)."""

    form, size = "pair", 2


class Obj(_Kind):
    """An object with exactly the keys of `required` and any of `optional`,
    or, when `each` is given, keyed by any str, each value of kind `each`."""

    def __init__(self, required: dict = {}, optional: dict = {}, each: _Kind = None):
        self.fields, self.each = {**required, **optional}, each
        self.required, self.keys = frozenset(required), frozenset(self.fields)

    def _check_keys(self, keys):
        if not (keys == self.required or self.required <= keys <= self.keys):
            missing, unknown = sorted(self.required - keys), sorted(keys - self.keys)
            raise _Mismatch(f"missing key {', '.join(missing)}" if missing else
                            f"unknown key {', '.join(map(repr, unknown))}")

    def parse(self, value):
        if type(value) is not dict:
            raise _expected("object", value)
        if self.each:
            return self.each.parse_items(list(value.values()), list(value))
        self._check_keys(value.keys())
        try:
            for key, item in value.items():
                self.fields[key].parse(item)
        except _Mismatch as exc:
            exc.path.append(key)
            raise

    def _at_once(self, values) -> bool:
        """Each distinct key set once, then each field across the objects."""
        if self.each or not _DICT.issuperset(map(type, values)):
            return False
        for keys in {tuple(d) for d in values}:
            self._check_keys(set(keys))
        for key, kind in self.fields.items():
            kind.parse_items([d[key] for d in values if key in d])
        return True


_LIST, _DICT = frozenset({list}), frozenset({dict})


def parse(schema: _Kind, doc, root: str = ""):
    """`doc`, once it is checked against `schema`.  A value that breaks it
    raises InputError naming its JSON path, or `root` for `doc` itself."""
    try:
        schema.parse(doc)
    except _Mismatch as exc:
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(exc.path))
        where = path.removeprefix(".") or root
        raise InputError(f"{where}: {exc}" if where else str(exc)) from None
    return doc


INT, STR, BOOL, ANY = (Leaf("int", int), Leaf("str", str), Leaf("bool", bool),
                       Leaf("value", *_KINDS))
INTS, STRS = ListOf(INT), ListOf(STR)

POLYTOPE = Obj(
    {"dimension": INT, "facets": ListOf(Obj({"id": STR}, {"label": STR, "vector": INTS}))},
    {"name": STR, "adjacency": ListOf(Pair(STR)),
     "ideal_vertices": ListOf(Obj({"label": STR, "incident": STRS}))},
)
MOVES, STATE = ListOf(STRS), Obj(each=STR)
INPUTS = Obj({"polytope": POLYTOPE, "moves": MOVES, "state": STATE})  # a subject's documents

# Dismantling orders, lists of [v, w] steps, name facet ids in a legality
# item and the int vertices of a canonical link graph in a shared item.
FACET_ORDER, LINK_ORDER = ListOf(Pair(STR)), ListOf(Pair(INT))
EVIDENCE_ITEMS = {
    "legality": Obj({"kind": STR, "host": Obj({"type": STR}),
                     "out_sequence": FACET_ORDER, "in_sequence": FACET_ORDER}),
    "critical-shared": Obj({"kind": STR, "ell": INT,
                            "asc_sequence": LINK_ORDER, "desc_sequence": LINK_ORDER}),
}
# The sequences an evidence item of each kind carries after its header.
SEQUENCE_KEYS = {kind: tuple(k for k, v in item.fields.items() if v in (FACET_ORDER, LINK_ORDER))
                 for kind, item in EVIDENCE_ITEMS.items()}

# The tables the verifier compares whole by canonical JSON are typed only at
# their top level; a bad face's verdict row cites its evidence, none when
# Unknown; a cusp apex is null where its part is no cone.
OBJ_TABLE, LIST_TABLE = Leaf("object", dict), Leaf("list", list)


def _report(verdicts: _Kind) -> Obj:
    return Obj({
        "version": STR, "subject": STR, "mode": STR, "pass": BOOL, "seeds": ANY,
        "inputs_digest": STR, "polytope": OBJ_TABLE, "moves": LIST_TABLE, "orbit": LIST_TABLE,
        "f_vector": OBJ_TABLE, "bad_faces": OBJ_TABLE, "euler": OBJ_TABLE, "verdicts": verdicts,
        "evidence": Obj(each=EVIDENCE_ITEMS["legality"]),
        "shared_evidence": Obj(each=EVIDENCE_ITEMS["critical-shared"]),
        "cusps": Obj({"apexes": ListOf(ListOf(ListOf(Pair(Leaf("str or null", str, type(None)))))),
                      "rows": ListOf(Obj({"ok": BOOL, "all_regular": BOOL}))}),
        "failures": STRS, "timings": ANY,
    }, {"inputs": INPUTS})


REPORT = _report(Obj({"rows": ListOf(Obj({"face": STRS, "verdict": STR, "states": INTS},
                                         {"evidence": STR})),
                      "witness_moves": INTS}))
# A report whose verdicts section `report.read_verdicts` read from the bytes
# certify writes: the subject's frame fixed the kinds in it, and all that is
# left of it is the tuple of the bad rows' outcomes.
READ_REPORT = _report(Leaf("tuple", tuple))
