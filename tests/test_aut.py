"""Aut(G) as a permutation group on G, against the brute-force table of ``conftest``.

``AutGroup`` keeps only the image arrays of the automorphisms and builds no
table over Aut.  Its greedy generators, element orders and inner count, and
the closure of every Galois and co-Galois group, are checked here against
``oracle_aut_table``, which composes those image arrays in full.  Each
check also runs on relabelled copies of the groups.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    index_of_row,
    oracle_aut_orders,
    oracle_aut_table,
    oracle_greedy_generators,
    oracle_inner_members,
    relabelled,
)
from grouper.approx import classify_hom, galois_group
from grouper.corpus import generate_corpus
from grouper.groups import _element_orders, generating_set_of_table, standard_group
from grouper.homs import AutSubgroup, automorphism_group, end_set, enumerate_homs

ROOT = Path(__file__).resolve().parent.parent
C3_CUBED = "product:cyclic:3,cyclic:3,cyclic:3"


def with_relabelled(groups, seed):
    """Each group, followed by a copy with its elements renamed at random."""
    rng = np.random.default_rng(seed)
    return [X for G in groups for X in (G, relabelled(G, rng.permutation(G.order)))]


GROUPS = generate_corpus(16) + [standard_group(n) for n in ("alternating:5", "alternating:6", "symmetric:5")]


def assert_closed_subgroup(sub: AutSubgroup):
    """Every product of two members is a member, and ``as_group`` is the oracle's restriction."""
    table = oracle_aut_table(sub.aut)
    m = sub.members
    assert (np.diff(m) > 0).all() and sub.contains(sub.aut.identity)
    products = table[np.ix_(m, m)]
    assert np.isin(products, m).all()
    assert (sub.as_group().table == m.searchsorted(products)).all()


class TestGenerators:
    def test_greedy_generators_and_orders_match_oracle_table(self):
        for X in with_relabelled(GROUPS, 11):
            aut = automorphism_group(X)
            table = oracle_aut_table(aut)
            assert aut.generators == generating_set_of_table(table, aut.identity), X.name
            assert (aut.element_orders == _element_orders(table, aut.identity)).all(), X.name
            assert aut.generators == oracle_greedy_generators(aut), X.name
            assert aut.element_orders.tolist() == oracle_aut_orders(aut), X.name
            assert aut.inner_order == len(oracle_inner_members(aut)), X.name

    def test_gl_3_3(self):
        G = standard_group(C3_CUBED)
        for X in with_relabelled([G], 2):
            aut = automorphism_group(X)
            assert (aut.order, aut.inner_order) == (11_232, 1)


class TestGaloisClosure:
    def test_galois_groups_closed_under_composition(self):
        corpus = with_relabelled(generate_corpus(8), 4)
        subs = {}  # one of each distinct (Aut, members)
        for H in corpus:
            for G in corpus:
                for phi in enumerate_homs(H, G).homs:
                    for side in ("target", "source"):
                        sub = galois_group(phi, side)
                        subs[id(sub.aut), sub.members.tobytes()] = sub
        for sub in subs.values():
            assert_closed_subgroup(sub)

    def test_classify_hom_galois_groups_closed_under_composition(self):
        corpus = with_relabelled(generate_corpus(6), 5)
        for H in corpus:
            for G in corpus:
                for phi in enumerate_homs(H, G).homs:
                    r = classify_hom(phi)
                    for sub, side in ((r.galois, "target"), (r.co_galois, "source")):
                        assert_closed_subgroup(sub)
                        assert (sub.members == galois_group(phi, side).members).all()

    def test_as_group_rejects_a_subset_not_closed(self):
        aut = automorphism_group(standard_group("symmetric:3"))
        a = int(np.flatnonzero(aut.element_orders == 3)[0])
        sub = AutSubgroup(aut, sorted({aut.identity, a}))
        assert sub.contains(a) and not sub.contains(int(oracle_aut_table(aut)[a, a]))
        with pytest.raises(ValueError, match="not closed"):
            sub.as_group()
        with pytest.raises(ValueError, match="without the identity"):
            AutSubgroup(aut, [int(oracle_aut_table(aut)[a, a])]).as_group()


class TestLocate:
    def test_locate_and_index_of_reindex_the_end_rows(self):
        """Each End row is found at the oracle's Aut index if it is bijective, and refused if not."""
        extra = [standard_group(n) for n in ("alternating:5", "symmetric:5")]
        for X in with_relabelled(generate_corpus(12) + extra, 6):
            aut = automorphism_group(X)
            assert aut.ends is end_set(X), X.name
            gens = aut.ends.gens
            for row in aut.ends.matrix:
                if (np.sort(row) == np.arange(X.order)).all():
                    a = index_of_row(aut.perms, row)
                    assert aut.locate(row[gens][None, :]).tolist() == [a], X.name
                    assert aut.index_of(row) == a, X.name
                else:
                    with pytest.raises(KeyError):
                        aut.locate(row[gens][None, :])
                    with pytest.raises(KeyError):
                        aut.index_of(row)

    @pytest.mark.parametrize("name", ["dihedral:8", "symmetric:4", "alternating:5"])
    def test_as_group_of_random_subsets_matches_oracle(self, name):
        """Closed subsets give the oracle's restricted table, the others ValueError; ``locate``
        finds every product of two members where the oracle does."""
        aut = automorphism_group(standard_group(name))
        table = oracle_aut_table(aut)
        gens = aut.ends.gens
        rng = np.random.default_rng(9)
        closed = 0
        for trial in range(40):
            picks = rng.choice(aut.order, size=int(rng.integers(1, 4)), replace=False)
            if trial % 2:  # the subgroup the picks generate, by the oracle's table
                reached = np.zeros(aut.order, dtype=bool)
                reached[picks] = reached[aut.identity] = True
                while not reached[table[np.ix_(reached, reached)]].all():
                    reached[table[np.ix_(reached, reached)]] = True
                m = np.flatnonzero(reached)
            else:
                m = np.union1d(picks, [aut.identity])
            products = table[np.ix_(m, m)]
            assert (aut.locate(aut.perms[m][:, aut.perms[m][:, gens]]) == products).all()
            sub = AutSubgroup(aut, m)
            if np.isin(products, m).all():
                closed += 1
                assert (sub.as_group().table == m.searchsorted(products)).all()
            else:
                with pytest.raises(ValueError, match="not closed"):
                    sub.as_group()
        assert 20 <= closed < 40


def test_building_aut_of_c3_cubed_stays_small():
    """Memory guard: Aut(C3 x C3 x C3) has order 11 232, and its table alone would be 505 MB."""
    code = (
        "import resource\n"
        "from grouper.groups import standard_group\n"
        "from grouper.homs import automorphism_group\n"
        f"assert automorphism_group(standard_group({C3_CUBED!r})).order == 11232\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert peak_mb < 150


def test_enumerating_end_of_c4_cubed_holds_its_rows_once():
    """Memory guard: End(C4 x C4 x C4) has 262 144 rows of 64 images, a 67 MB matrix."""
    code = (
        "import resource\n"
        "from grouper.groups import standard_group\n"
        "from grouper.homs import end_set\n"
        "assert len(end_set(standard_group('product:cyclic:4,cyclic:4,cyclic:4'))) == 4 ** 9\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert peak_mb < 125
