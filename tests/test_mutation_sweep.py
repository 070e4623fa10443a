"""A mutation sweep of the seed-0 reports: every field of a report must be
bound to a claim, so every edit of it must be rejected.

The sweep takes one instance, chosen with a fixed seed, of every path
pattern of the report: a path with its list positions generalised, a
verdict row's position to the row's branch, and all evidence ids taken as
one id.  On p5 it sweeps every pattern; on p6, whose verify costs ten
times more, the patterns of the critical rows and the shared item, which
p5 has none of; on the generic report of the compatible 3-cube every
pattern, its embedded inputs included.  It applies each edit that the instance's
value allows: an int to a bool, a float or a str, a bool to an int, a
value to null and null to a value, an int off by one, a change of JSON kind
(an int, a str or an object to a list, a list to an int, an object or a
str), a key dropped or renamed (its last character cut), and a list element
dropped, duplicated or swapped with another; a mutant equal to its parent,
by canonical JSON, is skipped.  `verify` must reject every mutant (exit 1)
or call it malformed (exit 2), naming it by its JSON path and not by the
last-guard "malformed report:" message, and never fail with an internal
error (exit 3).  Only `seeds` and `timings` back no claim, so
their mutants may verify.  An edit of the cusps' apex lists can name, for a
part, another of its cone apexes; such a mutant is a valid proof and
verifies, and the sweep recognises it by checking every apex below the
edited path on the section polytope, for the first state whose In part
selects its pair, and counts it apart.

Each mutant is also written as certify writes a report, with
`document_to_json`, and `verify_report_file` of the file must give the exit
code and the messages that `verify_document` gives on the parsed mutant.
A built-in report's bytes are read through its subject's frame unless the
mutant edits its verdicts or its subject: then the read departs from the
frame and the file is read whole, as every generic report is, whose inputs
follow its verdicts.  The one edit of the verdicts that keeps the frame's
form, a bad row's evidence id dropped, is read through the frame and
rejected by the row's check.  A parsed section is read through the same
frame, so every mutant that verifies was read through it.

The sweep also repeats a key in one instance of every object pattern, the
report itself included, in the bytes `verify` reads: the first key once
more in front, with a null value that `json.loads` would let the real one
override, and the last key once more behind, with its own value.  `verify`
of the file must call it malformed (exit 2), naming the key.
"""

import json
import random
from pathlib import Path

import pytest

from morsecert import verify
from morsecert.certify import certify_generic
from morsecert.errors import InputError
from morsecert.report import (
    _DOC,
    _Written,
    canonical_json,
    certificate_to_document,
    document_to_json,
    read_verdicts,
    row_branch,
)
from morsecert.verify import verify_document, verify_report_file

from test_certify import apex_entries, cube_inputs

NO_CLAIM = ("seeds", "timings")
SWEEP_SEED = 20141


def _nodes(value, path=()):
    """(path, value) of every node below `value`, depth first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _pattern(doc, path):
    """`path` with list positions as "*", a verdict row's position as its
    branch, and evidence ids as one id."""
    out = ["*" if isinstance(k, int) else
           "<id>" if i == 1 and path[0] in ("evidence", "shared_evidence") else k
           for i, k in enumerate(path)]
    if path[:2] == ("verdicts", "rows") and len(path) > 2:
        out[2] = row_branch(doc["verdicts"]["rows"][path[2]])
    return tuple(out)


def _replacements(value):
    """The values an edit puts in place of `value`."""
    if value is None:
        return [0]
    if isinstance(value, bool):
        return [int(value), not value, None]
    if isinstance(value, int):
        return [bool(value), float(value), str(value), value + 1, value - 1, None, [value]]
    if isinstance(value, str):
        return [None, [value]]
    if isinstance(value, list):
        return [None, len(value), {str(i): v for i, v in enumerate(value)}, json.dumps(value)]
    return [None, list(value.values())]


def _list_edits(value):
    """Copies of the list `value` with one element dropped, duplicated, or
    swapped with the next one."""
    if not value:
        return []
    edits = [value[1:], value[:1] + value]
    if len(value) > 1:
        edits.append([value[1], value[0]] + value[2:])
    return edits


def _mutants(doc, rng, swept):
    """(path, description, edit) of every mutant of the sweep of the
    patterns for which `swept` holds; `edit(doc)` applies the mutant and
    returns a function that undoes it."""
    instances = {}
    for path, value in _nodes(doc):
        instances.setdefault(_pattern(doc, path), []).append(path)
    for pattern in sorted(filter(swept, instances), key=repr):
        path = rng.choice(instances[pattern])
        *parent, key = path
        holder = doc
        for k in parent:
            holder = holder[k]
        value = holder[key]
        news = _replacements(value) + (_list_edits(value) if isinstance(value, list) else [])
        for new in news:
            if canonical_json(new) != canonical_json(value):
                yield path, f"{value!r:.40} -> {new!r:.40}", _setter(holder, key, new)
        if isinstance(holder, dict):
            yield path, "drop key", _rekeyed(holder, key, None)
            if key[:-1] not in holder:
                yield path, f"rename key to {key[:-1]!r}", _rekeyed(holder, key, key[:-1])


def _setter(holder, key, new):
    def edit(_):
        old = holder[key]
        holder[key] = new
        return lambda: holder.__setitem__(key, old)
    return edit


def _rekeyed(holder, key, new):
    """An edit of dict `holder` that renames `key` to `new` in its place,
    or drops it where `new` is None."""
    def edit(_):
        old = dict(holder)
        holder.clear()
        holder.update((new if k == key else k, v) for k, v in old.items()
                      if k != key or new is not None)
        # the undo keeps the key order, which the report's bytes fix
        return lambda: (holder.clear(), holder.update(old))
    return edit


def _outcome(check, arg) -> tuple:
    """`verify`'s exit code for `check(arg)`, 3 for a malformed report that
    only the last-guard catch-all names, and its messages."""
    try:
        ok, messages = check(arg)
    except InputError as exc:
        return 3 if str(exc).startswith("malformed report:") else 2, [str(exc)]
    except Exception as exc:
        return 3, [repr(exc)]
    return 0 if ok else 1, messages


def _apexes_are_cone_apexes(S, doc, path) -> bool:
    """Whether every apex below `path`, a path into `cusps.apexes`, is a
    cone apex of its part: the apexes of a pair `apexes[c][i][j]` on the
    section polytope of cusp c, its bad face i and the first state whose In
    part selects pair j."""
    scope = tuple(path[2:5])
    return all(apex in K.star_vertex_apexes()
               for key, _, pair, parts in apex_entries(S, doc["cusps"]["apexes"])
               if key[:len(scope)] == scope
               for K, apex in zip(parts, pair))


def _repeated_key_mutants(doc, rng, swept):
    """(path, description, the report's bytes, the repeated key) of the
    repeated-key mutants of one instance of each object pattern for which
    `swept` holds, the report itself included."""
    instances = {(): [()]}
    for path, value in _nodes(doc):
        if isinstance(value, dict) and value:
            instances.setdefault(_pattern(doc, path), []).append(path)
    for pattern in sorted(filter(swept, instances), key=repr):
        path = rng.choice(instances[pattern])
        obj = doc
        for k in path:
            obj = obj[k]
        text = json.dumps(obj, separators=(",", ":"))
        first, last = next(iter(obj)), list(obj)[-1]
        for what, key, new in (
                ("leading", first, "{" + json.dumps(first) + ":null," + text[1:]),
                ("trailing", last, text[:-1] + "," + json.dumps(last) + ":"
                 + json.dumps(obj[last], separators=(",", ":")) + "}")):
            yield path, f"{what} repeated key {key!r}", _with_object(doc, path, new), key


def _with_object(doc, path, text) -> str:
    """The report's bytes with the object at `path` written as `text`."""
    if not path:
        return text
    *parent, key = path
    holder = doc
    for k in parent:
        holder = holder[k]
    old, marker = holder[key], "\x01repeated-key mutant\x01"
    holder[key] = marker
    try:
        return document_to_json(doc).replace(json.dumps(marker), text)
    finally:
        holder[key] = old


def _outcome_only(path, what) -> bool:
    """Whether a mutant of a verdict row at `path` edits no more than a bad
    row's outcome, in a form that the frame reads: only a dropped evidence
    id, as an Unknown row has none; every other edit of a row makes a verdict
    or an id that is no JSON string, or a row of other keys."""
    return path[-1] == "evidence" and what == "drop key"


def _sweep(cert, S, tmp: Path, swept=lambda pattern: True):
    """Run the sweep on `cert`'s report, of subject S; returns the number of
    mutants and the accepted ones outside NO_CLAIM, those naming another
    cone apex, and those that ended in an internal error, each as (path,
    edit).  A repeated-key mutant that `verify` does not call malformed,
    naming the key, counts as accepted.  A mutant whose file `verify`
    answers otherwise than the parsed mutant, or whose bytes it reads by
    the other path, or that it accepts past the frame, counts as crashed."""
    doc = json.loads(document_to_json(certificate_to_document(cert)))
    before = document_to_json(doc)
    accepted, other_apex, crashed, n = [], [], [], 0
    framed, file = [], tmp / "mutant.json"  # each `read_verdicts` result of a file's verify
    # each section of the report, written once: a mutant's file writes only
    # the section it edits anew, into the bytes `document_to_json` writes
    sections = {k: _Written(_DOC.encode(v)) for k, v in doc.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "read_verdicts", lambda *args: framed.append(read_verdicts(*args))
                   or framed[-1])
        for path, what, edit in _mutants(doc, random.Random(SWEEP_SEED), swept):
            undo = edit(doc)
            code, messages = _outcome(verify_document, doc)
            file.write_text(document_to_json({k: sections[k] if k in sections and k != path[0]
                                              else v for k, v in doc.items()}))
            framed.clear()
            if _outcome(verify_report_file, file) != (code, messages):
                crashed.append((path, f"{what}: the file's verify differs"))
            through = [r is not None for r in framed] or [False]  # the bytes' read first
            if cert.subject != "generic" and through[0] != (
                    path[0] not in ("verdicts", "subject") or _outcome_only(path, what)):
                crashed.append((path, f"{what}: read {'through' if through[0] else 'past'} "
                                      "the frame"))
            if code == 0 and not through[-1]:
                crashed.append((path, f"{what}: accepted past the frame"))
            if code == 0 and path[0] not in NO_CLAIM:
                if path[:2] == ("cusps", "apexes") and _apexes_are_cone_apexes(S, doc, path):
                    other_apex.append((path, what))
                else:
                    accepted.append((path, what))
            if code == 3:
                crashed.append((path, what))
            undo()
            n += 1
    report = tmp / "repeated-key.json"
    for path, what, text, key in _repeated_key_mutants(doc, random.Random(SWEEP_SEED), swept):
        report.write_text(text)
        try:
            verify_report_file(report)
            accepted.append((path, what))
        except InputError as exc:
            if str(exc) != f"{report}: repeated key {key!r}":
                accepted.append((path, f"{what}: {exc}"))
        n += 1
    assert document_to_json(doc) == before
    return n, accepted, other_apex, crashed


def test_every_field_of_the_p5_report_is_bound(cert_p5, S5, tmp_path):
    n, accepted, other_apex, crashed = _sweep(cert_p5, S5, tmp_path)
    assert (accepted, crashed) == ([], []), (accepted[:10], crashed[:10])
    assert n > 200, n
    # the recognizer itself: the certified apexes pass, an apex of the
    # other part, which the parts do not share, fails
    doc = json.loads(document_to_json(certificate_to_document(cert_p5)))
    c, i = next((c, i) for c, faces in enumerate(doc["cusps"]["apexes"])
                for i, pairs in enumerate(faces) if pairs)
    path = ("cusps", "apexes", c, i, 0)
    assert _apexes_are_cone_apexes(S5, doc, ("cusps", "apexes"))
    pair = doc["cusps"]["apexes"][c][i][0]
    pair[0] = pair[1]
    assert not _apexes_are_cone_apexes(S5, doc, path)
    assert not _apexes_are_cone_apexes(S5, doc, path[:3])
    assert _apexes_are_cone_apexes(S5, doc, ("cusps", "apexes", c + 1))
    print(f"\np5: {n} mutants, none accepted outside {NO_CLAIM}, "
          f"{len(other_apex)} naming another cone apex")


def test_every_field_of_a_generic_report_is_bound(tmp_path):
    """The generic verify path: every pattern of the compatible 3-cube's
    report, its embedded inputs included, is bound."""
    pol, moves, state = cube_inputs()
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state})
    assert cert.passed, cert.failures
    n, accepted, other_apex, crashed = _sweep(cert, cert.S, tmp_path)
    assert (accepted, other_apex, crashed) == ([], [], []), (accepted[:10], crashed[:10])
    doc = json.loads(document_to_json(certificate_to_document(cert)))
    on_inputs = sum(1 for _ in _mutants(doc, random.Random(SWEEP_SEED),
                                        lambda pattern: pattern[:1] == ("inputs",)))
    assert on_inputs > 20 and n > 100, (on_inputs, n)
    print(f"\ngeneric: {n} mutants, none accepted outside {NO_CLAIM}")


def test_every_critical_field_of_the_p6_report_is_bound(cert_p6, S6, tmp_path):
    n, accepted, other_apex, crashed = _sweep(
        cert_p6, S6, tmp_path,
        lambda pattern: pattern[:1] == ("shared_evidence",) or pattern[2:3] == ("critical-pairs",))
    assert (accepted, other_apex, crashed) == ([], [], []), (accepted, crashed)
    assert n > 40, n
    print(f"\np6: {n} mutants of the critical rows and the shared item, none accepted")


def test_the_sweep_repeats_a_key_at_every_object_level(cert_p5, tmp_path):
    """The repeated-key mutants reach the report itself, a verdict row, a
    cusp row, an evidence item and its host, and an embedded input
    document, each exiting 2 and naming the key; the copies a reader that
    keeps the last value would take for the report verify without them."""
    pol, moves, state = cube_inputs()
    cert = certify_generic({"polytope": pol, "moves": moves, "state": state})
    patterns = set()
    for c in (cert_p5, cert):
        doc = json.loads(document_to_json(certificate_to_document(c)))
        for path, what, text, key in _repeated_key_mutants(
                doc, random.Random(SWEEP_SEED), lambda pattern: True):
            patterns.add(_pattern(doc, path))
            if what.startswith("leading"):
                # without the repeat, the copy is the report itself
                head = "{" + json.dumps(key) + ":null,"
                assert head in text and json.loads(text) == doc
    assert {(), ("verdicts", "rows", "good-face"), ("cusps", "rows", "*"),
            ("evidence", "<id>"), ("evidence", "<id>", "host"),
            ("inputs", "polytope"), ("inputs", "state")} <= patterns, sorted(patterns)
