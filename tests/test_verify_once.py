"""The checker does each check once: one pass over the verdict plan, whose
first departing row it names, and a schema parse that checks whole lists at
once and walks value by value only to name a mismatch."""

import json

from morsecert import kernel, schema, verify
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
    kernel.builtin_subject.cache_clear()
    try:
        plans = _counted(monkeypatch, kernel, "_plan_rows")
        walks = _counted(monkeypatch, schema._Kind, "_walk")
        assert verify.verify_document(doc) == (True, [])
        assert verify.verify_document(doc) == (True, [])
    finally:
        kernel.builtin_subject.cache_clear()
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


def test_the_first_departing_row_is_named(cert_p5, tmp_path, capsys):
    """Each edit of the p5 verdict rows exits 1 and names the first row
    that departs from the plan, by its index, or the good row whose
    witness is wrong, by its face.  No later departing row is named: after
    a swap the rows are in place again and nothing else fails, and after a
    drop every later row departs, so the evidence they cite is unbound."""
    text = document_to_json(certificate_to_document(cert_p5))
    for edit in (_swapped, _dropped, _appended, _wrong_witness):
        doc = json.loads(text)
        named = edit(doc["verdicts"])
        write_json(tmp_path / "r.json", doc)
        assert main(["verify", str(tmp_path / "r.json")]) == 1, edit.__name__
        out = capsys.readouterr().out
        if edit is _dropped:
            first, unbound = out.splitlines()
            assert first == f"FAIL: {named}", out
            assert unbound.startswith("FAIL: evidence items bound to no claim: "), out
        else:
            assert out == f"FAIL: {named}\n", out
