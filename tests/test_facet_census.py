"""The facet census (`facet_census`): the subject on each facet of P6 and
of P5, certified in fibration mode, its structured report written and
verified, 43 subjects that nobody chose.

Facet A of P6 is P5, under other cusp labels.  Only the facets of P6's
move {A, B, C} fibre.  Each report verifies exactly when its certification
passed, and on each, `verify` names the same cusp failures, in the same
words, as the report lists.

Run as a script, `PYTHONPATH=src python tests/test_facet_census.py`
certifies the census and prints the line that README quotes for each
built-in subject, and `test_readme_quotes_the_census` holds README to
them."""

from pathlib import Path

import pytest

from morsecert.certify import certify_generic
from morsecert.io import builtin_inputs
from morsecert.report import emit_report
from morsecert.verify import verify_report_file

from facet_census import census, facet_inputs

# Per built-in subject: its facet count, the facets that fibre, and the
# Regular and the Unknown (face, state) pairs over its facets' bad rows.
FIGURES = {"p6": (27, ("A", "B", "C"), 6768, 5184), "p5": (16, (), 576, 448)}

# P5's label of each cusp of P6's facet A, matched by incidence set: each
# carries its antipode's label.
ANTIPODES = {"1": "-1", "-1": "1", "i": "-i", "-i": "i", "j": "-j", "-j": "j",
             "k": "-k", "-k": "k", "B": "C", "C": "B"}


def _run(tag: str, directory: Path) -> list:
    """Per facet of the built-in subject `tag`, in its document's order:
    (facet, certificate, `verify_report_file` of the report written to
    `directory`)."""
    runs = []
    for facet, inputs in census(tag).items():
        cert = certify_generic(inputs, mode="fibration")
        path = directory / f"{tag}-{facet}.json"
        path.write_text(emit_report(cert, "structured"))
        runs.append((facet, cert, verify_report_file(path)))
    return runs


def _figures(runs: list) -> tuple:
    """The `FIGURES` entry of one subject's runs."""
    pairs = {"Regular": 0, "Unknown": 0}
    for _, cert, _ in runs:
        for p, (verdict, _) in zip((p for p in cert.S.plan if p.witness is None), cert.outcomes):
            pairs[verdict] += len(p.states)
    fibre = tuple(sorted(facet for facet, cert, _ in runs if cert.passed))
    return len(runs), fibre, pairs["Regular"], pairs["Unknown"]


def _line(tag: str, figures: tuple) -> str:
    """The sentence README quotes for the census of `tag`."""
    n, fibre, regular, unknown = figures
    names = " and ".join(filter(None, (", ".join(fibre[:-1]), *fibre[-1:]))) or "none"
    return (f"{tag.upper()}, {n} facets: {names} fibre; {regular:,} Regular and {unknown:,} "
            f"Unknown (face, state) pairs.")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("census")
    return {tag: _run(tag, directory) for tag in FIGURES}


def _as_sets(inputs: dict) -> tuple:
    """The facets, adjacency, moves and state of `inputs`, and its cusps as
    incidence sets, each in a form that no order changes."""
    pol = inputs["polytope"]
    return ({(f["id"], f.get("label", f["id"])) for f in pol["facets"]},
            set(map(frozenset, pol["adjacency"])), set(map(frozenset, inputs["moves"])),
            inputs["state"], {frozenset(iv["incident"]) for iv in pol["ideal_vertices"]})


def test_facet_a_of_p6_is_p5():
    facet_a = facet_inputs(builtin_inputs("p6")[0], "A")
    p5 = builtin_inputs("p5")[0]
    assert facet_a["polytope"]["dimension"] == p5["polytope"]["dimension"] == 5
    assert _as_sets(facet_a) == _as_sets(p5)


def test_p5s_cusps_carry_their_antipodes_labels():
    labels = [{frozenset(iv["incident"]): iv["label"]
               for iv in inputs["polytope"]["ideal_vertices"]}
              for inputs in (facet_inputs(builtin_inputs("p6")[0], "A"), builtin_inputs("p5")[0])]
    assert {label: labels[1][incident] for incident, label in labels[0].items()} == ANTIPODES


def test_the_census_figures(runs):
    assert {tag: _figures(runs[tag]) for tag in FIGURES} == FIGURES


def test_each_report_verifies_exactly_when_certify_passed(runs):
    for tag, subjects in runs.items():
        for facet, cert, (ok, messages) in subjects:
            assert ok == cert.passed and ok == (not messages), (tag, facet)


def test_verify_names_the_cusp_failures_the_report_lists(runs):
    """On each census report, `verify`'s `cusp …` messages are exactly the
    report's `cusp …` failures, in order: each failed cusp condition once."""
    cusp_failures = 0
    for tag, subjects in runs.items():
        for facet, cert, (_, messages) in subjects:
            listed = [f for f in cert.failures if f.startswith("cusp ")]
            assert [m for m in messages if m.startswith("cusp ")] == listed, (tag, facet)
            cusp_failures += len(listed)
    assert cusp_failures == 64


def test_facet_i_of_p6_names_each_cause_once(runs):
    """Facet i's honest failed report: 41 Unknown rows and 2 failed cusp
    conditions give 43 failures, and `verify` names each once, with the
    report's two claims that it did not pass: 45 messages."""
    (cert, (ok, messages)), = [(c, v) for facet, c, v in runs["p6"] if facet == "i"]
    assert not ok and (len(cert.failures), len(messages)) == (43, 45)
    assert sum(f.startswith("Unknown verdict at face ") for f in cert.failures) == 41
    assert len([m for m in messages if m.startswith("cusp ")]) == 2


def test_readme_quotes_the_census(runs):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    for tag in FIGURES:
        assert _line(tag, _figures(runs[tag])) in text, tag


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for tag in FIGURES:
            print(_line(tag, _figures(_run(tag, Path(tmp)))))
