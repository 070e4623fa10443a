"""The benchmark's reads of a report, checked on every test run: the
output checks of `perfbench/checks.py` on the seed-0 p5 and p6 reports,
and its tamper check, a copy with one sequence step dropped that `verify`
must reject, naming each tampered item's id.  perfbench reads `face`,
`states` and `verdict` of the verdict rows, `ok` and `all_regular` of the
cusp rows, and `kind`, `host.type` and the `*_sequence` keys of the
evidence items, so a report format that drops one of them fails here."""

import importlib.util
import json
from pathlib import Path

import pytest

from morsecert.cli import main
from morsecert.report import emit_report

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_benchmark_checks_pass_on_the_report(request, subject):
    cert = request.getfixturevalue(f"cert_{subject}")
    doc = json.loads(emit_report(cert, "structured"))
    rc = 0 if cert.passed else 1
    assert checks.check_certify(subject, rc, cert.summary_line(), doc) == []


@pytest.mark.parametrize("subject", ["p5", "p6"])
def test_benchmark_tamper_is_rejected_and_named(request, tmp_path, capsys, subject):
    """p6 tampers an ambient item and the shared item, as the p6-verify
    workload does; p5 an ambient item, as the p5-roundtrip workload does."""
    cert = request.getfixturevalue(f"cert_{subject}")
    for seed in (0, 1):
        doc = json.loads(emit_report(cert, "structured"))
        bad, named = checks.tamper(doc, seed, shared=subject == "p6")
        path = tmp_path / f"tampered-{seed}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        rc = main(["verify", str(path)])
        assert checks.check_rejected(rc, capsys.readouterr().out, named) == []
