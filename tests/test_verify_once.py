"""The checker does each check once: one read of the verdicts section through
the subject's kept frame, and a schema parse that checks whole lists at once
and walks value by value only to name a mismatch.  A report in the bytes
certify writes is read once: its verdicts section through the frame, and
each other object by the json module's scanner.  Any other spelling is
parsed whole, and its verdicts section read through the same frame in the
bytes certify writes of it; a section that departs from the frame is named
by its first departing row, and no outcome in it is checked."""

import json
import sys
from collections import Counter

from morsecert import io, kernel, report, schema, verify
from morsecert.cli import main
from morsecert.io import write_json
from morsecert.report import certificate_to_document, document_to_json, row_branch


def _counted(monkeypatch, owner, name) -> list:
    """Replace `owner.name` with a wrapper that records each call."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_passing_report_is_checked_in_one_pass(cert_p6, monkeypatch):
    """On the seed-0 p6 report the plan is made at most once, by the first
    verify in the process, and read in one pass; the per-value walk of the
    schema, which only names a mismatch, never runs."""
    doc = json.loads(document_to_json(certificate_to_document(cert_p6)))
    io.builtin_subject.cache_clear()
    try:
        plans = _counted(monkeypatch, kernel, "_plan_rows")
        walks = _counted(monkeypatch, schema._Kind, "_walk")
        assert verify.verify_document(doc) == (True, [])
        assert verify.verify_document(doc) == (True, [])
    finally:
        io.builtin_subject.cache_clear()
    assert (len(plans), len(walks)) == (1, 0)


def _key(row) -> str:
    return f"face {tuple(row['face'])} states {row['states']}"


def _good_index(rows) -> int:
    """The first good row followed by another good row."""
    return next(i for i in range(len(rows) - 1)
                if row_branch(rows[i]) == row_branch(rows[i + 1]) == "good-face")


def _swapped(verdicts):
    rows = verdicts["rows"]
    i = _good_index(rows)
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return f"verdict row {i}: {_key(rows[i])} where the plan has {_key(rows[i + 1])}"


def _dropped(verdicts):
    rows = verdicts["rows"]
    i = _good_index(rows)
    gone = rows.pop(i)
    return f"verdict row {i}: {_key(rows[i])} where the plan has {_key(gone)}"


def _appended(verdicts):
    rows = verdicts["rows"]
    rows.append(dict(rows[0]))
    return f"verdict row {len(rows) - 1}: {_key(rows[0])} where the plan has no row"


def _wrong_witness(verdicts):
    """Shift the first entry of `witness_moves`, the first good row's."""
    row = next(r for r in verdicts["rows"] if row_branch(r) == "good-face")
    verdicts["witness_moves"][0] += 1
    return f"face {tuple(row['face'])}: witness_moves[0] does not match its recomputation"


def _evidence_first(verdicts):
    """Write a bad row's `evidence` before its `states`."""
    rows = verdicts["rows"]
    i = next(i for i, r in enumerate(rows) if "evidence" in r)
    row = rows[i]
    rows[i] = {"face": row["face"], "verdict": row["verdict"], "evidence": row["evidence"],
               "states": row["states"]}
    return (f"face {tuple(row['face'])}: evidence {row['evidence']}: row key order does not "
            f"match its recomputation")


def _witness_moves_first(verdicts):
    """Write the section's `witness_moves` before its `rows`."""
    rows = verdicts.pop("rows")
    verdicts["rows"] = rows
    return "verdicts: key order does not match its recomputation"


def test_the_first_departing_row_is_named(cert_p5, tmp_path, capsys):
    """Each edit of the p5 verdict rows exits 1 with one message: the first
    row that departs from the plan, by its index, or the good row whose
    witness is wrong, by its face.  No later departing row is named, and no
    outcome or evidence item is checked in a section that departs: after a
    swap the rows are in place again, and after a drop every later row
    departs.  A row or a section whose keys are in another order than
    certify writes them departs too, and is named."""
    text = document_to_json(certificate_to_document(cert_p5))
    for edit in (_swapped, _dropped, _appended, _wrong_witness, _evidence_first,
                 _witness_moves_first):
        doc = json.loads(text)
        named = edit(doc["verdicts"])
        write_json(tmp_path / "r.json", doc)
        assert main(["verify", str(tmp_path / "r.json")]) == 1, edit.__name__
        assert capsys.readouterr().out == f"FAIL: {named}\n", edit.__name__


def _calls(fns, run) -> tuple:
    """`run()`, and how many times it called each function in `fns`, each
    call seen by `sys.setprofile`, a call from the json module's scanner
    included."""
    codes, counts = {fn.__code__: fn.__name__ for fn in fns}, Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        return run(), counts
    finally:
        sys.setprofile(None)


def _objects(value) -> int:
    """The JSON objects in `value`, itself included."""
    if type(value) is dict:
        return 1 + sum(map(_objects, value.values()))
    return sum(map(_objects, value)) if type(value) is list else 0


def test_a_canonical_report_is_read_through_its_frame(tmp_path, capsys):
    """`morsecert verify` of the CLI-written seed-0 p5 and p6 reports reads
    the verdicts section through the subject's frame (`read_verdicts`) and
    calls `io._object` once per object outside it, and never `load_json`.
    It builds no verdict row (`report.verdict_row`), checks each bad
    planned row's outcome once (`_check_outcome`: 80 on p5, 536 on p6), and
    checks at most two dismantling orders per bad row, and the shared
    item's two (`kernel.certificate_problem`).  The same reports written by
    `io.write_json`, and by `json.dumps` with its default separators, depart
    from the frame in the file's bytes, so they are read whole by
    `load_json`, and each verdicts section through the same frame in the
    bytes certify writes of it: each bad row's outcome is checked once,
    still with no row built, and nothing names a departure (`_departed`)."""
    watched = (verify._Verifier._departed, io._object, io.load_json, report.verdict_row,
               report.read_verdicts, verify._Verifier._check_outcome, kernel.certificate_problem)
    for subject, bad in (("p5", 80), ("p6", 536)):
        assert sum(p.witness is None for p in io.builtin_subject(subject).plan) == bad
        path = tmp_path / f"{subject}.json"
        assert main(["certify", subject, "--format", "structured", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        outside = 1 + sum(_objects(v) for k, v in doc.items() if k != "verdicts")
        code, calls = _calls(watched, lambda: main(["verify", str(path)]))
        orders = calls.pop("certificate_problem")
        assert (code, calls) == (0, {"_object": outside, "read_verdicts": 1,
                                     "_check_outcome": bad}), (subject, calls)
        assert 0 < orders <= 2 * bad + 2, (subject, orders)
        for write in (lambda p: write_json(p, doc), lambda p: p.write_text(json.dumps(doc))):
            other = tmp_path / "other.json"
            write(other)
            code, calls = _calls(watched, lambda: main(["verify", str(other)]))
            calls.pop("certificate_problem")
            calls.pop("_object")  # once per object of the whole document
            # the read of the file's bytes, which departs, and the re-encoded one
            assert (code, calls) == (0, {"load_json": 1, "read_verdicts": 2,
                                         "_check_outcome": bad}), (subject, calls)
    assert capsys.readouterr().out.count("report verified") == 6
