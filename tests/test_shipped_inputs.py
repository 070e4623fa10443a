"""The built-in subjects are data: `src/morsecert/data/p6.json` and
`p5.json` hold each one's polytope, moves and initial state, and every run
builds its subject from them (`io.builtin_subject`).  Here, and only here,
they are checked against the paper's construction: each file must be, byte
for byte, what `io.write_json` writes of the documents that `io`'s writers
make of `build_p6`, `build_p5` and the tables of `states`, and the
construction's balanced states must be compatible and, in canonical order,
the orbit of the first.  An installed package must carry both files.

Run as a script, it writes both files from the construction and prints the
SHA-256 of each, which `io.SHIPPED` pins:

    PYTHONPATH=src python tests/test_shipped_inputs.py
"""

import hashlib
import shutil
import tomllib
from fnmatch import fnmatch
from pathlib import Path

import pytest

from morsecert import io
from morsecert.cli import main
from morsecert.errors import StructuralError
from morsecert.io import builtin_subject, moves_to_doc, polytope_to_doc, state_to_doc, write_json
from morsecert.kernel import is_compatible, orbit
from morsecert.polytopes import build_p5, build_p6
from morsecert.report import certificate_to_document, document_to_json
from morsecert.states import (
    balanced_states_p5, balanced_states_p6, move_system_p5, move_system_p6,
)

ROOT = Path(__file__).resolve().parent.parent
TAGS = ("p6", "p5")


def construction(tag):
    """The paper's polytope, moves and balanced states of `tag`."""
    P6 = build_p6()
    if tag == "p6":
        return P6, move_system_p6(), balanced_states_p6(P6)
    P5 = build_p5(P6)
    return P5, move_system_p5(P5), balanced_states_p5(P5)


def rebuild(tag) -> dict:
    """The input documents of `tag` from the construction, its first
    balanced state the initial state."""
    P, m, states = construction(tag)
    return {"polytope": polytope_to_doc(P), "moves": moves_to_doc(m),
            "state": state_to_doc(states[0])}


@pytest.mark.parametrize("tag", TAGS)
def test_each_shipped_file_is_the_construction(tag, tmp_path):
    write_json(tmp_path / f"{tag}.json", rebuild(tag))
    want = (tmp_path / f"{tag}.json").read_bytes()
    assert (io.DATA / f"{tag}.json").read_bytes() == want
    assert hashlib.sha256(want).hexdigest() == io.SHIPPED[tag]


@pytest.mark.parametrize("tag", TAGS)
def test_the_balanced_states_are_the_orbit_of_a_compatible_state(tag):
    """Every balanced state of the construction is compatible, and the
    states, in canonical order, are the orbit of the first: so the shipped
    subject, the orbit of the shipped initial state, has them all."""
    P, m, states = construction(tag)
    assert len(states) == {"p6": 32, "p5": 16}[tag]
    for idx, s in enumerate(states):
        assert is_compatible(P, m, s) == (True, None), idx
    assert orbit(states[0], m) == states
    assert builtin_subject(tag).states == states


def test_an_edited_shipped_file_is_refused_naming_it(monkeypatch, cert_p5, tmp_path, capsys):
    """A copy of the shipped files with one byte of `p5.json` edited, one
    facet's status in the initial state: `builtin_subject` refuses it,
    naming the file, and certify, verify of a good report and info of p5
    all exit 3, while p6 still builds from its unedited copy."""
    report = tmp_path / "r.json"
    report.write_text(document_to_json(certificate_to_document(cert_p5)))
    for tag in TAGS:
        shutil.copy(io.DATA / f"{tag}.json", tmp_path)
    path = tmp_path / "p5.json"
    data = bytearray(path.read_bytes())
    data[data.rindex(b'"I"') + 1] = ord("O")
    path.write_bytes(bytes(data))
    monkeypatch.setattr(io, "DATA", tmp_path)
    io.builtin_inputs.cache_clear()
    builtin_subject.cache_clear()
    try:
        with pytest.raises(StructuralError) as info:
            builtin_subject("p5")
        codes = [main(argv) for argv in (["certify", "p5"], ["verify", str(report)],
                                         ["info", "p5"])]
        assert len(builtin_subject("p6").states) == 32
    finally:
        io.builtin_inputs.cache_clear()
        builtin_subject.cache_clear()
    got = hashlib.sha256(data).hexdigest()
    assert str(info.value) == f"p5 {path}: SHA-256 {got} is not the pinned {io.SHIPPED['p5']}"
    assert codes == [3, 3, 3]
    assert capsys.readouterr().err == f"internal error: {info.value}\n" * 3


def test_every_shipped_file_is_package_data():
    """pyproject.toml declares a pattern for every file under the package's
    data directory, so that a built wheel carries P6 and P5."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["morsecert"]
    package = ROOT / "src" / "morsecert"
    files = sorted(p.relative_to(package).as_posix()
                   for p in (package / "data").rglob("*") if p.is_file())
    assert files == ["data/p5.json", "data/p6.json"]
    assert [f for f in files if not any(fnmatch(f, pattern) for pattern in patterns)] == []


if __name__ == "__main__":
    for tag in TAGS:
        target = io.DATA / f"{tag}.json"
        target.parent.mkdir(exist_ok=True)
        write_json(target, rebuild(tag))
        print(target, hashlib.sha256(target.read_bytes()).hexdigest())
