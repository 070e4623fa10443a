"""The dominator kernel `states.dismantle` against the scan it replaced
(`oracles.dismantle_by_scan`): identical (v, w) orders, None included, on
every part the verdict plans of p5 and p6 dismantle, on the canonical face
links with their cores, and on seeded random graphs.  A part certified in
place by `flag_certificate`, as live ranks of its polytope's graph, gets
the order of the part relabelled as a graph of its own."""

import random

import pytest

from morsecert.report import verdict_plan
from morsecert.links import canonical_pairs_graphs
from morsecert.states import dismantle, flag_certificate
from oracles import dismantle_by_scan, part_graph


@pytest.mark.parametrize("subject", ["5", "6"])
def test_kernel_matches_scan_on_every_plan_part(request, subject):
    P, m, states = (request.getfixturevalue(f"{x}{subject}") for x in ("P", "M", "BAL"))
    parts = {}
    for p in verdict_plan(P, m, states):
        if p.masks is not None:
            dual, inn = p.masks
            for part in (dual & ~inn, inn):
                parts.setdefault(part, P.ranked_graph().labels(part))
    for part, vertices in parts.items():
        G = part_graph(P, vertices)
        want = dismantle_by_scan(list(G.N))
        want = None if want is None else [[G.ids[v], G.ids[w]] for v, w in want]
        assert flag_certificate(P.ranked_graph(), part) == want, vertices
        assert flag_certificate(G, (1 << len(G.ids)) - 1) == want, vertices
        # every nonempty part of these plans dismantles
        assert (want is None) == (not vertices), vertices


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_kernel_matches_scan_on_canonical_links(ell):
    for G, core in canonical_pairs_graphs(ell):
        # ranks follow the sorted labels, as `RankedGraph` requires
        assert list(G.ids) == sorted(G.ids)
        assert [G.rank[x] for x in G.ids] == list(range(len(G.ids)))
        N, keep = list(G.N), G.mask(core)
        to_core, to_point = dismantle(N, keep), dismantle(N)
        assert to_core == dismantle_by_scan(N, keep) and to_core is not None
        # the link is a homotopy sphere, so no order reaches a point
        assert to_point == dismantle_by_scan(N) and to_point is None


def _random_graph(rng, n, p):
    N = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                N[i] |= 1 << j
                N[j] |= 1 << i
    return N


def test_kernel_matches_scan_on_random_graphs():
    rng = random.Random(20121)
    outcomes = {"stuck": 0, "done": 0}
    for _ in range(400):
        n = rng.randint(0, 24)
        N = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8, 0.95)))
        for keep in (0, sum(1 << i for i in range(n) if rng.random() < 0.2)):
            got = dismantle(N, keep)
            assert got == dismantle_by_scan(N, keep), (N, keep)
            outcomes["stuck" if got is None else "done"] += 1
        # dismantled in place on a live set, or relabelled to that set alone
        live = sum(1 << i for i in range(n) if rng.random() < 0.6)
        ranks = [i for i in range(n) if live >> i & 1]
        sub = [sum(1 << j for j, q in enumerate(ranks) if N[p] >> q & 1) for p in ranks]
        want = dismantle_by_scan(sub)
        want = None if want is None else [(ranks[v], ranks[w]) for v, w in want]
        assert dismantle(N, live=live) == want, (N, live)
    assert min(outcomes.values()) > 100, outcomes
    assert dismantle([]) is None and dismantle([3, 3], live=0) is None
    assert dismantle([3, 3], keep=3) == [] == dismantle_by_scan([3, 3], keep=3)
