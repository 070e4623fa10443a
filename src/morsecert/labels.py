"""Quaternion label algebra for the facets of the 27- and 16-facet polytopes.

Facets carry string labels: the eight units "1", "-1", "i", ..., "-k", the
sixteen sign patterns "1+i+j+k", ..., "-1-i-j-k" (standing for the half
quaternions (±1±i±j±k)/2), and the three extra symbols "A", "B", "C".  These
24 labels are the Hurwitz units.  Every quaternion here is kept in doubled
coordinates, so a unit is an integer vector: "1" is (2, 0, 0, 0) and a sign
label its ±1 vector.  A product of two doubled Hurwitz integers has even
coordinates, and is halved only after that is checked, so all arithmetic is
exact on integers and every derived relation is integral truth.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import InputError

Quat = Tuple[int, int, int, int]  # doubled coordinates: 2 * (a + bi + cj + dk)

UNIT_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def sign_label(signs: Tuple[int, int, int, int]) -> str:
    parts = ["1" if signs[0] > 0 else "-1"]
    for s, sym in zip(signs[1:], "ijk"):
        parts.append(("+" if s > 0 else "-") + sym)
    return "".join(parts)


def _all_sign_labels() -> tuple:
    out = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    out.append(sign_label((s0, s1, s2, s3)))
    return tuple(out)


SIGN_LABELS = _all_sign_labels()
T24_LABELS = UNIT_LABELS + SIGN_LABELS
SPECIAL_LABELS = ("A", "B", "C")


def label_signs(label: str) -> Tuple[int, int, int, int]:
    """Sign pattern of a 16-type label like '-1+i-j+k'."""
    if label not in SIGN_LABELS:
        raise InputError(f"not a sign label: {label!r}")
    s0 = -1 if label.startswith("-") else 1
    rest = label[2:] if s0 < 0 else label[1:]
    signs = [s0]
    for sym in "ijk":
        idx = rest.index(sym)
        signs.append(-1 if rest[idx - 1] == "-" else 1)
    return tuple(signs)


def _doubled_unit(label: str) -> Quat:
    q = [0, 0, 0, 0]
    q["1ijk".index(label[-1])] = -2 if label.startswith("-") else 2
    return tuple(q)


# The 24 doubled labels, both ways round.
_QUATS: Dict[str, Quat] = {
    **{u: _doubled_unit(u) for u in UNIT_LABELS},
    **{t: label_signs(t) for t in SIGN_LABELS},
}
_LABELS: Dict[Quat, str] = {q: lbl for lbl, q in _QUATS.items()}


def label_quat(label: str) -> Quat:
    """Doubled quaternion of a T24 label: units are (±2, 0, 0, 0) and its
    permutations, sign labels their ±1 vectors."""
    try:
        return _QUATS[label]
    except KeyError:
        raise InputError(f"not a T24 label: {label!r}") from None


def quat_mul(p: Quat, q: Quat) -> Quat:
    """The doubled product of two doubled quaternions: their Hamilton
    product, which must have even coordinates, halved."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    raw = (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )
    if any(x & 1 for x in raw):
        raise InputError(f"product of {p!r} and {q!r} is not a Hurwitz integer")
    return tuple(x >> 1 for x in raw)


def quat_conj(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def euclid4(p: Quat, q: Quat) -> int:
    """Four times the Euclidean product of the quaternions `p` and `q` stand for."""
    return sum(a * b for a, b in zip(p, q))


def minus_count(label: str) -> int:
    """Number of minus signs in a 16-type label."""
    return sum(1 for s in label_signs(label) if s < 0)


BASE_POINT_LABELS = ("1", "1-i+j-k", "1+i+j-k")


def base_unit(label: str) -> str:
    """Unit class of a T24 label: the q in Q8 with label = q * base point.

    The three base points are pairwise adjacent and invariant under the
    involution; every T24 element factors uniquely as q * base with q a unit.
    """
    t = label_quat(label)
    found = None
    for bp in BASE_POINT_LABELS:
        lbl = _LABELS.get(quat_mul(t, quat_conj(label_quat(bp))))
        if lbl in UNIT_LABELS:
            if found is not None:
                raise InputError(f"{label!r} factors over two base points")
            found = lbl
    if found is None:
        raise InputError(f"{label!r} does not factor over the base points")
    return found


def t24_adjacent(a: str, b: str) -> bool:
    """Adjacency rule for two T24-labelled facets: non-negative 4-dot product."""
    return euclid4(label_quat(a), label_quat(b)) >= 0
