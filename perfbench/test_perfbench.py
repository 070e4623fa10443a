"""Fast checks of the benchmark itself, on the cheap p5 subject."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_rejected, check_verify, tamper  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _morsecert_names():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "morsecert" or name.startswith("morsecert.")
        for key, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("trace", [False, True])
def test_one_operation_emits_every_declared_metric(tmp_path, trace):
    import morsecert.cli  # noqa: F401

    before = _morsecert_names()
    result = run.run("p5-roundtrip", 0, 0.0, trace, out=tmp_path)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    record = json.loads((tmp_path / f"p5-roundtrip-seed0-trace{int(trace)}.json").read_text())
    assert {"commit", "python", "nproc", "loadavg_start", "seed"} <= set(record["meta"])
    after = _morsecert_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_patches_every_import_site():
    import morsecert.complexes
    import morsecert.links
    import morsecert.states
    import morsecert.verify
    from morsecert.verify import _Verifier

    original = morsecert.complexes.try_collapse
    check = _Verifier.check_verdicts
    with run.Tracer():
        wrapped = morsecert.complexes.try_collapse
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert morsecert.states.try_collapse is wrapped
        assert morsecert.links.try_collapse is wrapped
        assert morsecert.verify.replay_collapse.__perfbench_span__ == "complexes.replay_collapse"
        assert _Verifier.check_verdicts is not check
    assert morsecert.states.try_collapse is original
    assert morsecert.links.try_collapse is original
    assert _Verifier.check_verdicts is check


def test_tampered_report_is_rejected(tmp_path):
    from morsecert.cli import main

    report = tmp_path / "p5.json"
    assert main(run.certify_argv("p5", report, 0)) == 0
    bad, named = tamper(json.loads(report.read_text()), 0, shared=False)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(bad))
    b = run.Bench("p5-roundtrip", 0, 0.0, tmp_path)
    rc, out, _ = b.call(["verify", str(tampered)])
    assert check_rejected(rc, out, named) == []
    rc, out, _ = b.call(["verify", str(report)])
    assert check_verify(rc, out) == []
    assert check_rejected(rc, out, named) != []
