import numpy as np
import pytest

from conftest import oracle_aut_table, oracle_classify_against_class, oracle_is_orthogonal
from grouper.approx import (
    GroupClass,
    classify_against_class,
    classify_hom,
    f_radical,
    f_socle,
    galois_group,
    image_factorize,
    is_orthogonal,
    local_kernel,
)
from grouper.corpus import generate_corpus
from grouper.errors import EmptyClassError
from grouper.groups import (
    GroupHom,
    describe_structure,
    identity_hom,
    standard_group,
    trivial_hom,
)
from grouper.homs import enumerate_homs


def hom(src, tgt, images):
    return GroupHom(src, tgt, np.array(images, dtype=np.int32))


def first_embedding(H, G):
    return next(h for h in enumerate_homs(H, G).homs if h.is_injective)


class TestAbsoluteClassification:
    def test_identity_all_flags(self, groups):
        r = classify_hom(identity_hom(groups["symmetric:3"]))
        assert all(r.flags.values())
        assert r.galois_order == 1 and r.co_galois_order == 1
        assert r.witnesses == []

    def test_projection_z4_z2_is_localization(self, groups):
        r = classify_hom(hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1]))
        assert r.flags["isLocalization"]
        assert r.flags["isEnvelope"]
        assert r.co_galois_order == 2  # multiplication by 3 fixes the projection

    def test_doubling_z2_z4_envelope_not_localization(self, groups):
        r = classify_hom(hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2]))
        assert r.flags["isEnvelope"] and not r.flags["isLocalization"]
        assert r.galois_order == 2
        assert describe_structure(r.galois.as_group()) == "C2"
        kinds = {w.flag: w.kind for w in r.witnesses}
        assert kinds["isLocalization"] == "non-injective-pair"

    def test_c3_in_s3_envelope_with_galois_c3(self, groups):
        phi = first_embedding(groups["cyclic:3"], groups["symmetric:3"])
        r = classify_hom(phi)
        assert r.flags["isEnvelope"]
        assert r.galois_order == 3
        assert describe_structure(r.galois.as_group()) == "C3"
        assert r.flags["isCellularCover"] and r.flags["isCover"]

    def test_report_structures_match_their_galois_groups(self, groups):
        """The structures in ``to_dict`` are memoized per Galois group; each must still be
        ``describe_structure`` of that report's own group, on both sides."""
        pairs = (("dihedral:8", "dihedral:8"), ("cyclic:4", "symmetric:4"), ("symmetric:3", "symmetric:4"))
        for src, tgt in pairs:
            for phi in enumerate_homs(groups[src], groups[tgt]).homs:
                r = classify_hom(phi)
                d = r.to_dict()
                assert d["galois"]["structure"] == describe_structure(r.galois.as_group())
                assert d["coGalois"]["structure"] == describe_structure(r.co_galois.as_group())
                rel = classify_against_class(phi, GroupClass("C2", [groups["cyclic:2"]]), "cover")
                assert rel.to_dict()["coGalois"]["structure"] == describe_structure(rel.galois.as_group())

    def test_trivial_hom_to_nontrivial_not_preenvelope(self, groups):
        r = classify_hom(trivial_hom(groups["cyclic:3"], groups["symmetric:3"]))
        assert not r.flags["isPreenvelopeOfTargetClass"]
        kinds = {w.flag: w.kind for w in r.witnesses}
        assert kinds["isEnvelope"] == "unlifted-hom"

    def test_report_dict_schema(self, groups):
        r = classify_hom(hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2]))
        d = r.to_dict()
        assert set(d) == {"source", "target", "hom", "flags", "galois", "coGalois", "witnesses"}
        assert set(d["flags"]) == {
            "isLocalization", "isCellularCover", "isEnvelope", "isCover",
            "isPreenvelopeOfTargetClass", "isPrecoverOfSourceClass",
        }


class TestGaloisGroups:
    def test_galois_closed_under_composition(self, groups):
        phi = first_embedding(groups["cyclic:3"], groups["symmetric:3"])
        sub = galois_group(phi, "target")
        for a in sub.members:
            for b in sub.members:
                assert sub.contains(int(oracle_aut_table(sub.aut)[a, b]))

    def test_cogalois_of_projection(self, groups):
        phi = hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1])
        assert galois_group(phi, "source").order == 2

    def test_identity_trivial_both_sides(self, groups):
        phi = identity_hom(groups["dihedral:8"])
        assert galois_group(phi, "target").is_trivial
        assert galois_group(phi, "source").is_trivial

    def test_bad_side_rejected(self, groups):
        with pytest.raises(ValueError):
            galois_group(identity_hom(groups["cyclic:2"]), "middle")


class TestRelativeClassification:
    def test_doubling_against_z4_z8(self, groups):
        Z8 = standard_group("cyclic:8")
        cls = GroupClass("c4c8", [groups["cyclic:4"], Z8])
        phi = hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2])
        r = classify_against_class(phi, cls, "envelope")
        assert r.in_class and r.is_preapproximation and r.is_approximation

    def test_inclusion_z2_z4_is_precover_of_z2(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        phi = hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2])
        r = classify_against_class(phi, cls, "cover")
        assert r.is_preapproximation

    def test_projection_is_epireflection_case(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        phi = hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1])
        r = classify_against_class(phi, cls, "envelope")
        assert r.is_approximation and r.has_unique_liftings

    def test_not_in_class_fails(self, groups):
        cls = GroupClass("c3", [groups["cyclic:3"]])
        phi = hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2])
        r = classify_against_class(phi, cls, "envelope")
        assert not r.in_class and not r.is_approximation

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClassError):
            GroupClass("empty", [])

    def test_matches_absolute_singleton(self, groups):
        """The absolute envelope flag equals the {target}-relative one."""
        H, G = groups["cyclic:3"], groups["symmetric:3"]
        cls = GroupClass("tgt", [G])
        for phi in enumerate_homs(H, G).homs:
            absolute = classify_hom(phi).flags["isEnvelope"]
            relative = classify_against_class(phi, cls, "envelope").is_approximation
            assert absolute == relative


def relative_mismatches(phi, classes) -> list:
    """(class, side) of each relative report or orthogonality verdict of phi that differs
    from the oracle's; the reports are compared in full, witnesses included."""
    out = []
    for cls in classes:
        for side in ("envelope", "cover"):
            if classify_against_class(phi, cls, side).to_dict() != \
                    oracle_classify_against_class(phi, cls, side).to_dict():
                out.append((cls.name, side))
        if is_orthogonal(phi, cls) != oracle_is_orthogonal(phi, cls):
            out.append((cls.name, "orthogonal"))
    return out


class TestRelativeAgainstOracle:
    def test_every_hom_of_the_order_6_corpus(self):
        corpus = generate_corpus(6)
        by_name = {G.name: G for G in corpus}
        classes = [GroupClass(F.name, [F]) for F in corpus]
        classes.append(GroupClass("C2+D6", [by_name["C2"], by_name["D6"]]))
        bad = [(phi.source.name, phi.target.name, phi.images.tolist(), m)
               for H in corpus for G in corpus for phi in enumerate_homs(H, G).homs
               for m in relative_mismatches(phi, classes)]
        assert bad == []

    @pytest.mark.parametrize("source,target", [("dihedral:8", "symmetric:4"), ("quaternion8", "dihedral:16")])
    def test_larger_pairs(self, groups, source, target):
        classes = [GroupClass(n, [groups[n]]) for n in ("cyclic:2", "cyclic:4", "symmetric:3")]
        bad = [(phi.images.tolist(), m) for phi in enumerate_homs(groups[source], groups[target]).homs
               for m in relative_mismatches(phi, classes)]
        assert bad == []


class TestSocle:
    def test_transpositions_generate_s3(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        assert f_socle(groups["symmetric:3"], cls).is_whole

    def test_three_cycles_generate_a3(self, groups):
        cls = GroupClass("c3", [groups["cyclic:3"]])
        sub = f_socle(groups["symmetric:3"], cls)
        assert sub.order == 3 and sub.is_normal

    def test_coprime_socle_trivial(self, groups):
        cls = GroupClass("c5", [standard_group("cyclic:5")])
        assert f_socle(groups["symmetric:3"], cls).is_trivial


class TestRadical:
    def test_z2_radical_of_z4_is_whole(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        rad, pi = f_radical(groups["cyclic:4"], cls)
        assert rad.is_whole and pi.target.order == 1

    def test_coprime_radical_trivial(self, groups):
        cls = GroupClass("c3", [groups["cyclic:3"]])
        rad, pi = f_radical(groups["cyclic:4"], cls)
        assert rad.is_trivial and pi.target.order == 4

    def test_z2_radical_of_s3_is_whole(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        rad, _ = f_radical(groups["symmetric:3"], cls)
        assert rad.is_whole

    def test_radical_contains_socle(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        G = groups["dihedral:16"]
        socle = f_socle(G, cls)
        rad, _ = f_radical(G, cls)
        assert rad.contains_all(socle.members)


class TestOrthogonality:
    def test_projection_orthogonal_to_coprime(self, groups):
        phi = hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1])
        assert is_orthogonal(phi, GroupClass("c3", [groups["cyclic:3"]]))

    def test_projection_orthogonal_to_z2(self, groups):
        phi = hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1])
        assert is_orthogonal(phi, GroupClass("c2", [groups["cyclic:2"]]))

    def test_doubling_not_orthogonal_to_z4(self, groups):
        phi = hom(groups["cyclic:2"], groups["cyclic:4"], [0, 2])
        assert not is_orthogonal(phi, GroupClass("c4", [groups["cyclic:4"]]))


class TestLocalKernel:
    def test_kernel_of_projection(self, groups):
        cls = GroupClass("c2", [groups["cyclic:2"]])
        k = local_kernel(groups["cyclic:4"], cls)
        assert sorted(k.members.tolist()) == [0, 2]

    def test_no_homs_gives_whole_group(self, groups):
        cls = GroupClass("c3", [groups["cyclic:3"]])
        assert local_kernel(groups["symmetric:3"], cls).is_whole


class TestImageFactorization:
    def test_compose_recovers(self, groups):
        H, G = groups["cyclic:3"], groups["symmetric:4"]
        for phi in enumerate_homs(H, G).homs:
            epi, mono = image_factorize(phi)
            assert epi.is_surjective and mono.is_injective
            assert mono.compose(epi).equal(phi)

    def test_trivial_hom_image(self, groups):
        epi, mono = image_factorize(trivial_hom(groups["symmetric:3"], groups["cyclic:4"]))
        assert epi.target.order == 1

    def test_epi_image_full(self, groups):
        phi = hom(groups["cyclic:4"], groups["cyclic:2"], [0, 1, 0, 1])
        _, mono = image_factorize(phi)
        assert mono.source.order == 2
