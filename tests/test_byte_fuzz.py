"""A byte-level fuzz of the report reader: seeded byte mutants of the
CLI-written seed-0 p5 and p6 reports, each verified from its file and, where
its text parses, as the parsed document.

The rule, fixed before the first run: with `FUZZ_SEED`, `COUNTS[subject]`
mutants of each report, each of one of four kinds, drawn alike: one byte
replaced, 1-7 bytes deleted, one byte inserted, or a span of 1-39 bytes
duplicated in place; a byte put in is printable ASCII or a newline.  Half
the positions are drawn from the whole file.  A quarter are drawn from the
seams of the verdicts section, the bytes where its reader switches between
the subject's fixed text and what it reads: for each bad row's verdict and
evidence id, the byte before the string, its two quotes and the byte after.
The verdicts section's other bytes are the fixed text, which any position
in the whole file draws too; the seams are 8 bytes a bad row, and no
mutant that a reader's missed check there lets through would otherwise be
drawn often enough to be seen.  The last quarter are drawn from the last
64 bytes, where the report's object closes.

A mutant passes when neither read ends in an internal error (exit 3, as
`tests/test_mutation_sweep.py` counts it: an exception other than
InputError, or the last-guard "malformed report:"), both reads give the
same exit code and messages, and an accepted mutant is the report itself
by canonical JSON outside `seeds` and `timings`, or names another cone
apex of the same part in the cusps' apex lists.  Both tests take about 4.5 s
on a 2-core VM."""

import json
import random
import re

from morsecert.cli import main
from morsecert.errors import InputError
from morsecert.io import builtin_subject, load_json
from morsecert.report import canonical_json
from morsecert.verify import verify_document, verify_report_file

from test_mutation_sweep import NO_CLAIM, _apexes_are_cone_apexes, _outcome

FUZZ_SEED = 9042
COUNTS = {"p5": 400, "p6": 24}
TAIL = 64
KINDS = ("replace", "delete", "insert", "duplicate")
BYTES = [chr(c) for c in range(0x20, 0x7F)] + ["\n"]
# a bad row's verdict and evidence id, as certify writes them
OUTCOME = re.compile(r'"verdict":("[^"]*"),"states":\[[\d,]*\],"evidence":("e[0-9a-f]{16}")\}')


def _seams(text: str) -> list:
    """The positions around each bad row's verdict and evidence id: the byte
    before each string, its opening and closing quotes, and the byte after."""
    return [p for m in OUTCOME.finditer(text) for g in (1, 2)
            for p in (m.start(g) - 1, m.start(g), m.end(g) - 1, m.end(g))]


def _mutants(text: str, n: int, rng: random.Random):
    """`n` (description, mutant text) by the module's rule."""
    seams, tail = _seams(text), range(len(text) - TAIL, len(text))
    for k in range(n):
        where = k % 4
        pos = (rng.randrange(len(text)) if where < 2 else
               rng.choice(seams) if where == 2 else rng.choice(tail))
        kind = rng.choice(KINDS)
        if kind == "replace":
            byte = rng.choice(BYTES)
            yield f"{kind} {pos} by {byte!r}", text[:pos] + byte + text[pos + 1:]
        elif kind == "delete":
            size = rng.randint(1, 7)
            yield f"{kind} {pos}+{size}", text[:pos] + text[pos + size:]
        elif kind == "insert":
            byte = rng.choice(BYTES)
            yield f"{kind} {byte!r} at {pos}", text[:pos] + byte + text[pos:]
        else:
            end = pos + rng.randint(1, 39)
            yield f"{kind} {pos}:{end}", text[:end] + text[pos:end] + text[end:]


def _claims(doc) -> str:
    """`doc` by canonical JSON, without the fields that back no claim."""
    return canonical_json({k: v for k, v in doc.items() if k not in NO_CLAIM})


def _same_proof(S, doc, report) -> bool:
    """Whether `doc`, a mutant that both reads accept, is `report` outside
    the fields that back no claim, or differs from it only in naming
    another cone apex in the cusps' apex lists."""
    return _claims(doc) == _claims(report) or (
        _claims({**doc, "cusps": report["cusps"]}) == _claims(report)
        and _apexes_are_cone_apexes(S, doc, ("cusps", "apexes")))


def _fuzz(subject: str, tmp_path) -> tuple:
    """The failing mutants of `subject`'s report, as (description, what is
    wrong), and the exit codes of the file reads, counted."""
    report = tmp_path / f"{subject}.json"
    assert main(["certify", subject, "--format", "structured", "--output", str(report)]) == 0
    text, S, path = report.read_text(), builtin_subject(subject), tmp_path / "mutant.json"
    original = json.loads(text)
    failures, codes = [], {}
    for what, mutant in _mutants(text, COUNTS[subject], random.Random(FUZZ_SEED)):
        path.write_text(mutant)
        code, messages = _outcome(verify_report_file, path)
        codes[code] = codes.get(code, 0) + 1
        try:
            doc = load_json(path, mutant)
        except InputError:  # the text does not parse
            doc = None
        if code == 3:
            failures.append((what, f"internal error: {messages}"))
        elif doc is not None and _outcome(verify_document, doc) != (code, messages):
            failures.append((what, f"the reads differ: {_outcome(verify_document, doc)} "
                                   f"against {(code, messages)}"))
        elif code == 0 and (doc is None or not _same_proof(S, doc, original)):
            failures.append((what, "accepted"))
    return failures, codes


def test_byte_mutants_of_the_p5_report(tmp_path):
    failures, codes = _fuzz("p5", tmp_path)
    assert failures == [], failures[:10]
    # the rule reaches every outcome: a rejection, a malformed file, an acceptance
    assert {0, 1, 2} <= set(codes), codes


def test_byte_mutants_of_the_p6_report(tmp_path):
    failures, codes = _fuzz("p6", tmp_path)
    assert failures == [], failures[:10]
    assert {1, 2} <= set(codes), codes
