import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_copy_orbits
from grouper.corpus import _budget_ok, generate_corpus
from grouper.errors import NonInjectiveInput
from grouper.groups import standard_group, trivial_hom
from grouper.homs import enumerate_homs
from grouper.simple import (
    is_complete,
    is_perfect,
    is_simple,
    simple_envelope_criterion,
    structural_flags,
    subgroups_isomorphic_to,
)

ROOT = Path(__file__).resolve().parent.parent


def first_embedding(H, G):
    return next(h for h in enumerate_homs(H, G).homs if h.is_injective)


class TestStructuralFlags:
    @pytest.mark.parametrize(
        "descriptor,simple,perfect,complete",
        [
            ("cyclic:1", False, True, True),
            ("cyclic:2", True, False, False),
            ("cyclic:5", True, False, False),
            ("cyclic:4", False, False, False),
            ("symmetric:3", False, False, True),
            ("symmetric:4", False, False, True),
            ("alternating:4", False, False, False),
            ("alternating:5", True, True, False),
            ("quaternion8", False, False, False),
        ],
    )
    def test_flags(self, descriptor, simple, perfect, complete):
        G = standard_group(descriptor)
        assert is_simple(G) == simple
        assert is_perfect(G) == perfect
        assert is_complete(G) == complete

    def test_flags_dict(self):
        flags = structural_flags(standard_group("alternating:5"))
        assert flags == {"isSimple": True, "isPerfect": True, "isComplete": False}


class TestSubgroupEnumeration:
    def test_copies_of_c3_in_s3(self, groups):
        subs = subgroups_isomorphic_to(groups["symmetric:3"], groups["cyclic:3"])
        assert len(subs) == 1 and subs[0].order == 3

    def test_copies_of_c2_in_s3(self, groups):
        subs = subgroups_isomorphic_to(groups["symmetric:3"], groups["cyclic:2"])
        assert len(subs) == 3

    def test_no_copies_when_order_does_not_divide(self, groups):
        subs = subgroups_isomorphic_to(groups["symmetric:3"], groups["cyclic:4"])
        assert subs == []

    def test_copies_of_a5_in_a6_in_member_byte_order(self):
        # copies come in the order of their int32 members' bytes, which for
        # a target over 256 elements need not be their numeric order
        subs = subgroups_isomorphic_to(standard_group("alternating:6"), standard_group("alternating:5"))
        keys = [s.members.astype(np.int32).tobytes() for s in subs]
        assert len(subs) == 12 and keys == sorted(keys)


class TestCriterion:
    def test_a5_in_s5(self):
        A5, S5 = standard_group("alternating:5"), standard_group("symmetric:5")
        rep = simple_envelope_criterion(first_embedding(A5, S5))
        assert rep.applicable and rep.conditions_hold
        assert rep.copy_count == 1 and rep.orbit_count == 1
        assert rep.predicted_galois_order == 1
        assert rep.direct_is_envelope is True
        assert rep.direct_is_localization is False
        assert rep.agrees is True

    def test_c3_in_s3(self, groups):
        rep = simple_envelope_criterion(first_embedding(groups["cyclic:3"], groups["symmetric:3"]))
        assert rep.conditions_hold
        # the centralizer of A3 in S3 is A3 itself
        assert rep.predicted_galois_order == 3
        assert rep.direct_galois_order == 3
        assert rep.agrees is True

    def test_c2_in_c4_not_single_orbit_irrelevant_but_conditions(self, groups):
        rep = simple_envelope_criterion(first_embedding(groups["cyclic:2"], groups["cyclic:4"]))
        assert rep.applicable  # C2 is simple
        # abelian target: the centralizer is everything
        if rep.conditions_hold:
            assert rep.predicted_galois_order == 4
            # prediction disagrees with the actual Galois group here,
            # which only matches for genuine envelope situations
            assert rep.direct_galois_order == 2
            assert rep.agrees is False

    def test_non_simple_source_not_applicable(self, groups):
        rep = simple_envelope_criterion(
            first_embedding(groups["cyclic:4"], groups["dihedral:8"]), cross_check=False
        )
        assert not rep.applicable and not rep.conditions_hold

    def test_non_injective_rejected(self, groups):
        with pytest.raises(NonInjectiveInput):
            simple_envelope_criterion(trivial_hom(groups["cyclic:3"], groups["symmetric:3"]))

    def test_report_dict(self, groups):
        rep = simple_envelope_criterion(first_embedding(groups["cyclic:3"], groups["symmetric:3"]))
        d = rep.to_dict()
        assert d["predictedGaloisOrder"] == 3
        assert d["sourceSimple"] is True


def test_copy_orbits_match_oracle():
    """The criterion's single-orbit flag, copy and orbit counts and witness against the
    least-image oracle, for the first four embeddings of every budgeted pair of the
    order-12 corpus, and for A5 -> A6 and A5 -> S5."""
    corpus = generate_corpus(12)
    pairs = [(H, G) for H in corpus for G in corpus if _budget_ok(H, G)]
    A5 = standard_group("alternating:5")
    pairs += [(A5, standard_group("alternating:6")), (A5, standard_group("symmetric:5"))]
    cases = several = 0
    for H, G in pairs:
        embeddings = [h for h in enumerate_homs(H, G).homs if h.is_injective][:4]
        for phi in embeddings:
            d = simple_envelope_criterion(phi, cross_check=False).to_dict()
            witness = [w["subgroup"] for w in d["witnesses"] if w["flag"] == "copiesConjugateUnderAut"]
            got = (d["copiesConjugateUnderAut"], d["copyCount"], d["orbitCount"], (witness or [None])[0])
            assert got == oracle_copy_orbits(phi), (H.name, G.name, phi.images.tolist())
            cases += 1
            several += d["orbitCount"] > 1
    assert cases > 100 and several > 0


def cold_loads(code: str, module: str) -> bool:
    """Whether a fresh interpreter that runs `code` against this checkout's grouper has
    imported `module` by the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code += f"import sys\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_criterion_and_classification_leave_numpy_ma_unloaded():
    """In numpy 2.x a plain ``np.unique`` or ``np.isin`` imports ``numpy.ma`` on first use,
    tens of milliseconds in a cold process; neither call path needs it."""
    if cold_loads("import numpy\n", "numpy.ma"):
        pytest.skip("import numpy alone loads numpy.ma")
    assert not cold_loads(
        "from grouper.approx import classify_hom\n"
        "from grouper.groups import standard_group\n"
        "from grouper.homs import enumerate_homs\n"
        "from grouper.simple import simple_envelope_criterion\n"
        "A5, A6, S5 = (standard_group(d) for d in ('alternating:5', 'alternating:6', 'symmetric:5'))\n"
        "embed = lambda H, G: next(h for h in enumerate_homs(H, G).homs if h.is_injective)\n"
        "classify_hom(embed(A5, S5))\n"
        "assert simple_envelope_criterion(embed(A5, A6)).agrees\n", "numpy.ma")


@pytest.mark.parametrize("module", ["numpy.ma", "numpy.random"])
def test_sampled_lemma_checks_leave_numpy_ma_and_random_unloaded(module):
    """The sampler reads `random.Random` words itself.  Loading numpy's MT19937 from
    ``rng.getstate()`` would read the same stream faster, but the first touch of
    ``numpy.random`` costs more time and memory in a cold process than a report saves."""
    if cold_loads("import numpy\n", module):
        pytest.skip(f"import numpy alone loads {module}")
    assert not cold_loads(
        "from grouper.commutators import check_commutator_lemmas\n"
        "from grouper.groups import standard_group\n"
        "reports = check_commutator_lemmas(standard_group('dihedral:8'))\n"
        "assert not all(r.exhaustive for r in reports)\n", module)
