import dataclasses
import gc
import json
import time
import weakref

import numpy as np
import pytest

from conftest import classify_pair_per_hom, forget_memos, oracle_hits, relabelled
from grouper.corpus import (
    PAIR_BUDGET,
    SUITE_IDS,
    HomVerdicts,
    _budget_ok,
    _cogalois_worker,
    _galois_worker,
    _reduction_worker,
    _surjective_reps_by_kernel,
    classify_pair,
    generate_corpus,
    run_theorem_suite,
    search_approximations,
)
from grouper import homs
from grouper.approx import classify_hom, galois_group
from grouper.groups import GroupHom, are_isomorphic, standard_group
from grouper.homs import _gen_array, enumerate_homs


class TestCorpusGeneration:
    def test_max_order_five(self):
        corpus = generate_corpus(5)
        assert [(g.name, g.order) for g in corpus] == [
            ("C1", 1), ("C2", 2), ("C3", 3), ("C2xC2", 4), ("C4", 4), ("C5", 5),
        ]

    def test_s3_appears_once(self):
        corpus = generate_corpus(6)
        order6_nonabelian = [g for g in corpus if g.order == 6 and not g.is_abelian]
        assert len(order6_nonabelian) == 1

    def test_includes_a5_at_sixty(self):
        corpus = generate_corpus(60)
        assert any(g.name == "A5" and g.order == 60 for g in corpus)

    def test_no_isomorphic_duplicates(self):
        corpus = generate_corpus(16)
        for i, a in enumerate(corpus):
            for b in corpus[i + 1:]:
                if a.order == b.order:
                    assert not are_isomorphic(a, b)

    def test_sorted_by_order_then_name(self):
        corpus = generate_corpus(16)
        keys = [(g.order, g.name) for g in corpus]
        assert keys == sorted(keys)

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(1000)


class TestClassifyPair:
    def test_counts_match_homset(self, groups):
        H, G = groups["cyclic:3"], groups["symmetric:3"]
        v = classify_pair(H, G)
        assert len(v) == 3
        assert v.is_envelope.sum() == 2  # both embeddings
        assert v.galois_orders.tolist() == [6, 3, 3]

    def test_flag_implications(self, groups):
        for src in ("cyclic:4", "dihedral:8", "symmetric:3"):
            for tgt in ("cyclic:4", "dihedral:8", "symmetric:3"):
                v = classify_pair(groups[src], groups[tgt])
                # approximations are in particular preapproximations
                assert (~v.is_envelope | v.is_preenvelope).all()
                assert (~v.is_localization | v.is_preenvelope).all()
                assert (~v.is_cover | v.is_precover).all()
                assert (~v.is_cellular | v.is_precover).all()


class TestSuites:
    @pytest.mark.parametrize("suite", [s for s in SUITE_IDS if s != "lemmas"])
    def test_zero_violations_small(self, suite):
        corpus = generate_corpus(8)
        report = run_theorem_suite(corpus, suite)
        assert report.violations == []
        assert report.pairs_examined + len(report.skipped) == len(corpus) ** 2

    def test_lemmas_small(self):
        report = run_theorem_suite(generate_corpus(8), "lemmas")
        assert report.violations == []

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_theorem_suite(generate_corpus(4), "nope")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            run_theorem_suite([], "galois")

    def test_jobs_deterministic(self):
        corpus = generate_corpus(8)
        r1 = run_theorem_suite(corpus, "cogalois", jobs=1)
        forget_memos(corpus)
        r8 = run_theorem_suite(corpus, "cogalois", jobs=8)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r8.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("suite", ["cogalois", "galois", "reduction", "socle-cover", "radical-envelope"])
    def test_counts_invariant_under_relabelling(self, suite):
        corpus = generate_corpus(6 if suite in ("socle-cover", "radical-envelope") else 8)
        rng = np.random.default_rng(2024)
        moved = [relabelled(G, rng.permutation(G.order)) for G in corpus]

        def counts(report):
            return (report.pairs_examined, report.homs_classified, len(report.violations),
                    len(report.skipped), len(report.notes))

        assert counts(run_theorem_suite(moved, suite)) == counts(run_theorem_suite(corpus, suite))

    @pytest.mark.parametrize("suite", ["cogalois", "reduction", "socle-cover", "radical-envelope"])
    def test_pair_seconds_cover_the_suite(self, suite):
        """The source walks, and each source's classification run, are charged to one pair
        each, so the pair times add up to most of the suite's wall time.  Fresh copies: empty
        memos."""
        corpus = [G.renamed(G.name) for G in generate_corpus(12)]
        t0 = time.perf_counter()
        report = run_theorem_suite(corpus, suite)
        wall = time.perf_counter() - t0
        assert len(report.pair_seconds) == report.pairs_examined == len(corpus) ** 2
        assert sum(report.pair_seconds.values()) >= 0.5 * wall

    @pytest.mark.parametrize("suite", [s for s in SUITE_IDS if s != "lemmas"])
    def test_one_walk_per_source(self, suite, monkeypatch):
        """Every pair suite searches the homs of each source in one walk, over its budgeted
        targets, and no other: no worker walks a hom set of its own.  Fresh copies: empty memos."""
        corpus = [G.renamed(G.name) for G in generate_corpus(8)]
        walks, hom_sets = [], homs._hom_sets

        def counted(H, targets):
            walks.append((H, targets))
            return hom_sets(H, targets)

        monkeypatch.setattr(homs, "_hom_sets", counted)
        run_theorem_suite(corpus, suite)
        budgeted = [(H, [G for G in corpus if _budget_ok(H, G)]) for H in corpus]
        assert [(H.name, [G.name for G in t]) for H, t in walks] == [
            (H.name, [G.name for G in t]) for H, t in budgeted]
        for H, targets in budgeted:
            held = [k[1] for k in H._memo if isinstance(k, tuple) and k[0] == "homs"]
            assert sorted(map(id, held)) == sorted(map(id, targets)), H.name

    @pytest.mark.parametrize("suite", ["socle-cover", "radical-envelope"])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_class_suites_do_not_depend_on_walk_order(self, suite, seed):
        """The class suites report the same on fresh copies as on copies whose hom sets were
        first filled by one-target walks, in reverse corpus order; seed None keeps the
        labelling, another seed relabels every group."""
        corpus = generate_corpus(12)
        if seed is not None:
            rng = np.random.default_rng(seed)
            corpus = [relabelled(G, rng.permutation(G.order)) for G in corpus]
        fresh, filled = ([G.renamed(G.name) for G in corpus] for _ in range(2))
        for H in reversed(filled):
            for G in reversed(filled):
                if _budget_ok(H, G):
                    enumerate_homs(H, G)
        assert run_theorem_suite(fresh, suite).to_dict() == run_theorem_suite(filled, suite).to_dict()

    def test_surjective_reps_precompose_one_to_one(self):
        """The radical-envelope worker checks no unique liftings: precomposition with each of
        its surjective reps hits every hom into each class member at most once."""
        corpus = generate_corpus(12)
        bad = []
        for H in corpus:
            for G in (G for G in corpus if _budget_ok(H, G)):
                rank = max(len(_gen_array(G)), len(_gen_array(H)))
                for F in (F for F in corpus if F.order ** rank <= PAIR_BUDGET):
                    bad += [(H.name, G.name, F.name, row.tolist()) for row in _surjective_reps_by_kernel(H, G)
                            if (oracle_hits(row, H, G, F, True)[1] > 1).any()]
        assert bad == []

    def test_timings_separate_from_payload(self):
        report = run_theorem_suite(generate_corpus(4), "galois")
        assert "timings" not in report.to_dict()
        assert "timings" in report.to_dict(include_timings=True)


class TestMemoLifetime:
    def test_memos_die_with_their_groups(self):
        """Hom sets and verdicts live on the groups, so nothing keeps collected groups alive."""
        H = relabelled(standard_group("cyclic:3"), np.arange(3))  # fresh, not the shared groups
        G = relabelled(standard_group("symmetric:3"), np.arange(6))
        assert len(classify_pair(H, G)) == 3
        refs = [weakref.ref(H), weakref.ref(G)]
        del H, G
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestWorkerMasks:
    """The pair workers pick violating rows by mask; compare with a loop over made-up verdicts."""

    def test_violations_are_the_rows_each_law_fails(self, monkeypatch, groups):
        H, G = groups["cyclic:2"], groups["symmetric:3"]  # abelian source, non-nilpotent target
        rng = np.random.default_rng(7)
        n = 64
        flags = {k: rng.random(n) < 0.5 for k in ("is_envelope", "is_localization", "is_cover",
                                                  "is_cellular", "is_preenvelope", "is_precover")}
        v = HomVerdicts(H, G, rng.integers(0, G.order, (n, H.order)), **flags,
                        galois_orders=rng.integers(1, 3, n), co_galois_orders=rng.integers(1, 3, n))
        monkeypatch.setattr("grouper.corpus.classify_pair", lambda *_: v)

        def expected(law, bad):
            return sorted((v.matrix[i].tolist(), law) for i in range(n) if bad(i))

        def got(worker):
            count, violations, notes = worker(H, G)
            assert count == n and notes == [] and {x["pair"] for x in violations} <= {"C2->S3"}
            return sorted((x["hom"], x["law"]) for x in violations)

        assert got(_cogalois_worker) == expected(
            "cover-trivial-cogalois-implies-cellular",
            lambda i: v.is_cover[i] and v.co_galois_orders[i] == 1 and not v.is_cellular[i])

        def trivial(i):
            return v.is_envelope[i] and v.galois_orders[i] == 1

        assert got(_galois_worker) == sorted(
            expected("envelope-trivial-galois-implies-localization",
                     lambda i: trivial(i) and not v.is_localization[i])
            + expected("abelian-source-envelope-implies-abelian-target", trivial))


class TestReductionLaws:
    """The reduction suite checks ``classify_pair``'s Galois orders once per image or kernel."""

    @pytest.mark.parametrize("pair, flag, field, law", [
        (("C4", "Q8"), "is_envelope", "galois_orders", "envelope-image-inclusion-same-galois"),
        (("C8", "C4"), "is_cover", "co_galois_orders", "cover-image-projection-same-cogalois"),
    ], ids=["envelope", "cover"])
    def test_reports_exactly_a_miscounted_order(self, monkeypatch, pair, flag, field, law):
        """Mutation check: one hom's order off by one, on a hom that is not first with its key."""
        corpus = generate_corpus(8)
        H, G = (next(X for X in corpus if X.name == name) for name in pair)
        v = classify_pair(H, G)
        i = int(np.flatnonzero(getattr(v, flag))[-1])
        orders = getattr(v, field).copy()
        orders[i] += 1
        bent, real = dataclasses.replace(v, **{field: orders}), classify_pair
        monkeypatch.setattr("grouper.corpus.classify_pair",
                            lambda A, B: bent if A is H and B is G else real(A, B))
        report = run_theorem_suite(corpus, "reduction")
        assert report.violations == [{"pair": f"{H.name}->{G.name}", "hom": v.matrix[i].tolist(), "law": law}]

    def test_each_key_is_checked_against_its_own_hom(self, monkeypatch, groups):
        """Made-up verdicts: every hom of C2 x C2 -> C2 x C2 flagged on both sides, with the
        orders of ``galois_group``, which differ between images and between kernels."""
        X = groups["product:cyclic:2,cyclic:2"]
        rows = enumerate_homs(X, X).matrix
        gal, cogal = (np.array([galois_group(GroupHom(X, X, row, check=False), side).order for row in rows])
                      for side in ("target", "source"))
        assert len(set(gal.tolist())) > 1 and len(set(cogal.tolist())) > 1
        every = np.ones(len(rows), dtype=bool)
        v = HomVerdicts(X, X, rows, *[every] * 6, galois_orders=gal, co_galois_orders=cogal)
        monkeypatch.setattr("grouper.corpus.classify_pair", lambda *_: v)
        assert _reduction_worker(X, X) == (len(rows), [], [])

    def test_galois_groups_follow_image_and_kernel(self):
        """What checking once per key rests on: ``classify_pair`` gives every hom the orders of
        ``galois_group``, whose members follow from the image (target side) or kernel (source side)."""
        corpus = generate_corpus(12)
        rng = np.random.default_rng(12)
        moved = [relabelled(G, rng.permutation(G.order)) for G in corpus]
        checked = 0
        for groups in (corpus, moved):
            for H in groups:
                for G in groups:
                    v = classify_pair(H, G)
                    by_key = {}
                    for i, row in enumerate(v.matrix):
                        phi = GroupHom(H, G, row, check=False)
                        gal, cogal = galois_group(phi, "target"), galois_group(phi, "source")
                        assert (v.galois_orders[i], v.co_galois_orders[i]) == (gal.order, cogal.order)
                        for key, sub in ((("image", frozenset(row.tolist())), gal),
                                         (("kernel", (row == G.identity).tobytes()), cogal)):
                            first = by_key.setdefault(key, sub.members)
                            assert first.tobytes() == sub.members.tobytes(), (H.name, G.name, key)
                        checked += 1
        assert checked > 8000


class TestSearch:
    def test_z2_z4_envelope_is_doubling(self, groups):
        found = search_approximations(
            groups["cyclic:2"], groups["cyclic:4"], "envelope", injective_only=True
        )
        assert len(found) == 1
        assert found[0].images.tolist() == [0, 2]

    def test_c3_s3_two_envelope_embeddings(self, groups):
        found = search_approximations(groups["cyclic:3"], groups["symmetric:3"], "envelope")
        assert len(found) == 2
        assert all(h.is_injective for h in found)

    def test_coprime_pair_empty(self, groups):
        found = search_approximations(
            groups["cyclic:2"], groups["cyclic:3"], "envelope", injective_only=True
        )
        assert found == []

    def test_unknown_kind(self, groups):
        with pytest.raises(ValueError):
            search_approximations(groups["cyclic:2"], groups["cyclic:3"], "meow")

    @pytest.mark.parametrize("kind", ["envelope", "cover", "localization", "cellular"])
    def test_injective_only_keeps_the_injective_homs(self, kind):
        corpus = generate_corpus(8)
        for H in corpus:
            for G in corpus:
                found = search_approximations(H, G, kind, injective_only=True)
                every = search_approximations(H, G, kind)
                assert [h.images.tolist() for h in found] == [
                    h.images.tolist() for h in every if h.is_injective]

    def test_stable_across_worker_counts(self):
        corpus = generate_corpus(6)
        a = run_theorem_suite(corpus, "galois", jobs=1).to_dict()
        forget_memos(corpus)
        b = run_theorem_suite(corpus, "galois", jobs=4).to_dict()
        assert a == b


class TestClassifyPairMatchesClassifyHom:
    """Differential check: the batched pair classifier against the per-hom one."""

    def test_every_hom_at_max_order_12(self):
        from grouper.approx import classify_hom
        from grouper.corpus import _budget_ok
        from grouper.groups import GroupHom

        corpus = generate_corpus(12)
        checked = 0
        for H in corpus:
            for G in corpus:
                if not _budget_ok(H, G):
                    continue
                v = classify_pair(H, G)
                for i in range(len(v)):
                    rep = classify_hom(GroupHom(H, G, v.matrix[i], check=False))
                    got = (
                        bool(v.is_localization[i]), bool(v.is_cellular[i]),
                        bool(v.is_envelope[i]), bool(v.is_cover[i]),
                        bool(v.is_preenvelope[i]), bool(v.is_precover[i]),
                        int(v.galois_orders[i]), int(v.co_galois_orders[i]),
                    )
                    want = tuple(bool(rep.flags[f]) for f in (
                        "isLocalization", "isCellularCover", "isEnvelope", "isCover",
                        "isPreenvelopeOfTargetClass", "isPrecoverOfSourceClass",
                    )) + (rep.galois_order, rep.co_galois_order)
                    assert got == want, (H.name, G.name, v.matrix[i].tolist())
                    checked += 1
        assert checked > 1000


def is_hom(images, X, Y) -> bool:
    """Whether the image array ``images`` of X -> Y satisfies f(x y) = f(x) f(y) on the whole table."""
    images = np.asarray(images)
    return bool((images[X.table] == Y.table[images[:, None], images[None, :]]).all())


class TestClassifyHomMatchesOracle:
    """``classify_hom`` against the per-hom oracle, with each witness checked on its own."""

    FLAGS = ("isLocalization", "isCellularCover", "isEnvelope", "isCover",
             "isPreenvelopeOfTargetClass", "isPrecoverOfSourceClass")
    PAIRS = [
        ("cyclic:4", "cyclic:2"), ("cyclic:2", "cyclic:4"), ("cyclic:3", "symmetric:3"),
        ("cyclic:2", "product:cyclic:2,cyclic:2"), ("product:cyclic:2,cyclic:2", "cyclic:2"),
        ("cyclic:2", "cyclic:6"), ("cyclic:3", "alternating:4"),
        ("quaternion8", "product:cyclic:2,cyclic:2"), ("product:cyclic:2,cyclic:4", "dihedral:8"),
        ("dihedral:8", "symmetric:4"), ("alternating:4", "symmetric:4"), ("alternating:5", "symmetric:5"),
    ]

    TARGET_FLAGS = ("isPreenvelopeOfTargetClass", "isEnvelope", "isLocalization")

    @classmethod
    def check_witness(cls, w, phi, ends, homs):
        """The witness holds and is the first in canonical order, read from full image arrays;
        ``ends`` maps a side to its End rows, and ``homs`` holds the rows of Hom(H, G)."""
        H, G, images = phi.source, phi.target, phi.images
        side = "target" if w.flag in cls.TARGET_FLAGS else "source"
        X = G if side == "target" else H

        def compose(f):  # f.phi on the target side, phi.f on the source side
            return np.asarray(f)[images] if side == "target" else images[np.asarray(f)]

        comps = [tuple(compose(f).tolist()) for f in ends[side]]
        if w.kind == "unlifted-hom":
            unlifted = np.asarray(w.data["unliftedHom"])
            assert is_hom(unlifted, H, G)
            assert not any((compose(f) == unlifted).all() for f in ends[side])
            assert unlifted.tolist() == next(h for h in homs.tolist() if tuple(h) not in set(comps))
        elif w.kind == "non-automorphism-preimage":
            f = np.asarray(w.data["endomorphism"])
            assert w.data["of"] == side
            assert is_hom(f, X, X) and (compose(f) == images).all() and len(np.unique(f)) < X.order
            assert f.tolist() == next(e.tolist() for e, c in zip(ends[side], comps)
                                      if c == tuple(images.tolist()) and len(np.unique(e)) < X.order)
        else:
            assert w.kind == "non-injective-pair" and w.data["of"] == side
            f, g = np.asarray(w.data["first"]), np.asarray(w.data["second"])
            assert is_hom(f, X, X) and is_hom(g, X, X) and (f != g).any()
            assert (compose(f) == compose(g)).all()
            seen = {}
            j = next(j for j, c in enumerate(comps) if seen.setdefault(c, j) != j)
            assert [f.tolist(), g.tolist()] == [ends[side][seen[comps[j]]].tolist(), ends[side][j].tolist()]

    def test_every_hom_of_several_pairs(self):
        kinds = set()
        for src, tgt in self.PAIRS:
            H, G = standard_group(src), standard_group(tgt)
            want = classify_pair_per_hom(H, G)
            ends = {"target": enumerate_homs(G, G).matrix, "source": enumerate_homs(H, H).matrix}
            for i, row in enumerate(want.matrix):
                phi = GroupHom(H, G, row, check=False)
                rep = classify_hom(phi)
                got = tuple(rep.flags[f] for f in self.FLAGS) + (rep.galois_order, rep.co_galois_order)
                assert got == (
                    want.is_localization[i], want.is_cellular[i], want.is_envelope[i], want.is_cover[i],
                    want.is_preenvelope[i], want.is_precover[i], want.galois_orders[i],
                    want.co_galois_orders[i],
                ), (src, tgt, row.tolist())
                assert {w.flag for w in rep.witnesses} == {f for f in self.FLAGS if not rep.flags[f]}
                for w in rep.witnesses:
                    self.check_witness(w, phi, ends, want.matrix)
                    kinds.add(w.kind)
        assert kinds == {"unlifted-hom", "non-automorphism-preimage", "non-injective-pair"}


class TestThreadedClassification:
    def test_matches_serial_on_fresh_groups(self):
        """Hom keys and per-group memos are first built by racing threads."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from grouper.groups import FiniteGroup

        def fresh():
            return [FiniteGroup(G.name, G.table.copy(), generators=G.generators,
                                identity=G.identity) for G in generate_corpus(8)]

        serial = fresh()
        want = [classify_pair(H, G) for H in serial for G in serial]
        threaded = fresh()
        pairs = [(H, G) for H in threaded for G in threaded]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda p: classify_pair(*p), pairs, timeout=120))
        finally:
            sys.setswitchinterval(old)
        fields = ("matrix", "is_envelope", "is_localization", "is_cover", "is_cellular",
                  "is_preenvelope", "is_precover", "galois_orders", "co_galois_orders")
        for a, b in zip(want, got):
            for f in fields:
                assert np.array_equal(getattr(a, f), getattr(b, f)), (a.source.name, a.target.name, f)


class TestNilpotentMemo:
    def test_answers_survive_group_turnover(self):
        """Fresh groups built and dropped in a loop, so ids get reused."""
        import gc

        from grouper.commutators import nilpotency_class
        from grouper.corpus import _is_nilpotent
        from grouper.groups import FiniteGroup

        protos = [standard_group("cyclic:4"), standard_group("symmetric:3"),
                  standard_group("dihedral:8"), standard_group("alternating:4")]
        for k in range(40):
            P = protos[k % len(protos)]
            G = FiniteGroup(P.name, P.table.copy(), generators=P.generators,
                            identity=P.identity)
            assert _is_nilpotent(G) == (nilpotency_class(G) is not None)
            del G
            gc.collect()
