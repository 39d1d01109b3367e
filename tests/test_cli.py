import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import relabelled
from grouper import cli
from grouper.cli import main
from grouper.groups import standard_group
from grouper.homs import _gen_array, enumerate_homs

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroupCommand:
    def test_describe_text(self, capsys):
        code, out, _ = run(capsys, "group", "cyclic:6")
        assert code == 0
        assert "order: 6" in out

    def test_describe_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "group", "dihedral:8")
        data = json.loads(out)
        assert code == 0 and data["order"] == 8 and data["abelian"] is False

    def test_inline_permutations(self, capsys):
        code, out, _ = run(capsys, "group", "(1 2)(3 4);(1 3)(2 4)")
        assert code == 0 and "order: 4" in out

    def test_spec_file(self, capsys, tmp_path):
        f = tmp_path / "g.spec"
        f.write_text("name: K\n(1 2)(3 4)\n(1 3)(2 4)\n")
        code, out, _ = run(capsys, "group", str(f))
        assert code == 0 and "name: K" in out

    @pytest.mark.parametrize(
        "spec,structure",
        [("symmetric:6", "S6"), ("alternating:7", "A7"), ("(1 2);(1 2 3 4 5 6)", "S6"),
         ("(1 2 3 4 5 6);(1 2)", "nonabelian(720)"), ("Cyclic:4", "C4")],
    )
    def test_structure_of_large_and_capitalised_specs(self, capsys, spec, structure):
        code, out, err = run(capsys, "group", spec)
        assert code == 0, err
        assert f"structure: {structure}" in out.splitlines()

    def test_structure_of_a_named_spec_past_the_isomorphism_cap(self, capsys, tmp_path):
        f = tmp_path / "x.spec"
        f.write_text("name: X\nsymmetric:6\n")
        code, out, err = run(capsys, "group", str(f))
        assert code == 0, err
        assert "name: X" in out.splitlines() and "structure: S6" in out.splitlines()

    def test_flags(self, capsys):
        code, out, _ = run(capsys, "group", "alternating:5", "--flags")
        assert code == 0
        assert {"isSimple: true", "isPerfect: true", "isComplete: false"} <= set(out.splitlines())
        code, out, _ = run(capsys, "--format", "json", "group", "alternating:5", "--flags")
        data = json.loads(out)
        assert code == 0 and (data["isSimple"], data["isPerfect"], data["isComplete"]) == (True, True, False)
        code, out, _ = run(capsys, "group", "symmetric:3", "--flags")
        assert code == 0 and "isComplete: true" in out.splitlines()

    def test_bad_spec_exit_two(self, capsys):
        code, _, err = run(capsys, "group", "frobnitz:5")
        assert code == 2
        assert err.startswith("error:spec-parse:")


class TestHomsCommand:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "homs", "cyclic:3", "symmetric:3")
        assert code == 0 and "hom-count: 3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "homs", "cyclic:2", "cyclic:4")
        data = json.loads(out)
        assert data["count"] == 2 and data["homs"] == [[0, 0], [0, 2]]


class TestClassifyCommand:
    def test_classify_all(self, capsys):
        code, out, _ = run(capsys, "classify", "cyclic:3", "symmetric:3")
        assert code == 0
        assert out.count("galois:") == 3

    def test_classify_json_flags(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "classify", "cyclic:2", "cyclic:2")
        data = json.loads(out)
        reports = data["reports"]
        identity = reports[-1]
        assert all(identity["flags"].values())

    def test_hom_file_full_map(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("0 2\n")
        code, out, _ = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 0 and "isEnvelope: true" in out and "isLocalization: false" in out

    def test_hom_file_generator_images(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("2\n")
        code, out, _ = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 0 and "hom: 0 2" in out

    @pytest.mark.parametrize("source, target, relabel", [
        ("symmetric:3", "symmetric:3", False),
        ("product:cyclic:2,cyclic:2", "symmetric:3", False),
        ("dihedral:8", "quaternion8", False),
        ("alternating:4", "alternating:5", False),
        ("alternating:4", "alternating:5", True),
    ])
    def test_hom_file_generator_images_of_every_row(self, tmp_path, source, target, relabel):
        H, G = standard_group(source), standard_group(target)
        if relabel:
            rng = np.random.default_rng(5)
            H, G = (relabelled(X, rng.permutation(X.order)) for X in (H, G))
        gens = _gen_array(H)
        assert len(gens) >= 2
        f = tmp_path / "hom.txt"
        for row in enumerate_homs(H, G).matrix:
            f.write_text(" ".join(map(str, row[gens])) + "\n")
            assert (cli._load_hom(str(f), H, G).images == row).all()

    def test_non_multiplicative_hom_exit_two(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("0 1\n")
        code, _, err = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 2 and err.startswith("error:")

    def test_out_of_range_generator_image_exit_two(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("7\n")
        code, _, err = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 2 and err.startswith("error:")

    def test_assert_pass_and_fail(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("0 2\n")
        code, _, _ = run(capsys, "classify", "cyclic:2", "cyclic:4",
                         "--hom", str(f), "--assert", "isEnvelope")
        assert code == 0
        code, _, _ = run(capsys, "classify", "cyclic:2", "cyclic:4",
                         "--hom", str(f), "--assert", "isLocalization")
        assert code == 1

    def test_galois_group_beyond_dihedral_point_cap(self, capsys):
        # Gal(1 -> C2^3) = GL(3, 2) of order 168; dihedral:168 would need 84 points
        code, out, _ = run(capsys, "classify", "cyclic:1", "product:cyclic:2,cyclic:2,cyclic:2")
        assert code == 0 and "galois: order 168 (nonabelian(168))" in out
        code, out, _ = run(capsys, "--format", "json", "classify", "cyclic:1",
                           "product:cyclic:2,cyclic:2,cyclic:2")
        assert code == 0
        assert json.loads(out)["galois"] == {"order": 168, "structure": "nonabelian(168)"}

    def test_relative_class(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("0 2\n")
        code, out, _ = run(capsys, "--format", "json", "classify", "cyclic:2", "cyclic:4",
                           "--hom", str(f), "--class", "cyclic:4,cyclic:8")
        data = json.loads(out)
        assert code == 0 and data["flags"]["isApproximation"] is True


class TestOtherCommands:
    def test_galois(self, capsys):
        code, out, _ = run(capsys, "galois", "cyclic:3", "symmetric:3")
        assert code == 0 and "order: 3" in out and "structure: C3" in out

    def test_galois_of_a_generator_image_file(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("2\n")
        code, out, _ = run(capsys, "galois", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 0 and {"order: 2", "structure: C2"} <= set(out.splitlines())

    def test_socle(self, capsys):
        code, out, _ = run(capsys, "socle", "symmetric:3", "--class", "cyclic:3")
        assert code == 0 and "socle-order: 3" in out

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "radical", "cyclic:4", "--class", "cyclic:2")
        assert code == 0 and "radical-order: 4" in out

    def test_orthogonal(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_text("0 1 0 1\n")
        code, out, _ = run(capsys, "orthogonal", "cyclic:4", "cyclic:2",
                           "--hom", str(f), "--class", "cyclic:2")
        assert code == 0 and "orthogonal: true" in out

    @pytest.mark.parametrize("target,hom,cls,status", [
        ("cyclic:4", "0 2", "cyclic:4", 1),
        ("cyclic:2", "0 1", "cyclic:2", 0),
    ])
    def test_orthogonal_assert(self, capsys, tmp_path, target, hom, cls, status):
        f = tmp_path / "hom.txt"
        f.write_text(hom + "\n")
        code, out, _ = run(capsys, "orthogonal", "cyclic:2", target, "--hom", str(f),
                           "--class", cls, "--assert")
        assert code == status
        assert ("assert-failed: orthogonal" in out.splitlines()) == (status == 1)

    def test_simple_criterion(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "simple-criterion",
                           "cyclic:3", "symmetric:3")
        data = json.loads(out)
        assert code == 0 and data["predictedGaloisOrder"] == 3 and data["agrees"] is True

    def test_search(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "search", "cyclic:2", "cyclic:4",
                           "--kind", "envelope", "--injective")
        data = json.loads(out)
        assert data["homs"] == [[0, 2]]

    def test_missing_hom_file(self, capsys):
        code, _, err = run(capsys, "classify", "cyclic:2", "cyclic:4",
                           "--hom", "/nonexistent/h.txt")
        assert code == 2 and err.startswith("error:missing-file:")


def no_enumeration(*args):
    raise AssertionError("enumerate_homs called")


class TestAssertNames:
    """An unknown `--assert` name is an input error found before any work or output."""

    @pytest.mark.parametrize("argv", [
        ("classify", "cyclic:2", "cyclic:4", "--assert", "nope"),
        ("classify", "cyclic:2", "cyclic:4", "--assert", "isEnvelope", "nope"),
        ("classify", "cyclic:2", "cyclic:4", "--class", "cyclic:4", "--assert", "isEnvelope"),
        ("simple-criterion", "cyclic:3", "symmetric:3", "--assert", "nope"),
        ("simple-criterion", "cyclic:3", "symmetric:3", "--assert", "isEnvelope"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unknown_name_exit_two_before_output(self, capsys, monkeypatch, argv, fmt):
        monkeypatch.setattr(cli, "enumerate_homs", no_enumeration)
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:unknown-assert-flag: unknown flag ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, known", [
        (("classify", "cyclic:2", "cyclic:4"), cli.HOM_FLAGS),
        (("classify", "cyclic:2", "cyclic:4", "--class", "cyclic:4,cyclic:8"), cli.RELATIVE_FLAGS),
    ])
    def test_known_names_are_the_report_flags(self, capsys, argv, known):
        code, out, _ = run(capsys, "--format", "json", *argv)
        reports = json.loads(out)["reports"]
        assert code == 0 and all(tuple(r["flags"]) == known for r in reports)

    def test_every_known_name_accepted(self, capsys):
        code, _, err = run(capsys, "classify", "cyclic:2", "cyclic:4", "--assert", *cli.HOM_FLAGS)
        assert code == 1 and err == ""
        code, _, err = run(capsys, "simple-criterion", "cyclic:3", "symmetric:3",
                           "--assert", *cli.CRITERION_FLAGS)
        assert code == 0 and err == ""


class TestNoInjectiveHom:
    @pytest.mark.parametrize("command", ["galois", "simple-criterion"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_typed_exit_two(self, capsys, command, fmt):
        code, out, err = run(capsys, "--format", fmt, command, "cyclic:4", "cyclic:2")
        assert (code, out) == (2, "")
        assert err == "error:no-injective-hom: no injective hom C4 -> C2; give --hom\n"

    @pytest.mark.parametrize("command", ["galois", "simple-criterion"])
    def test_first_injective_hom_chosen(self, capsys, command):
        # Hom(C3, S3) in key order: the trivial hom, then the two embeddings onto A3
        code, out, _ = run(capsys, "--format", "json", "homs", "cyclic:3", "symmetric:3")
        first = [h for h in json.loads(out)["homs"] if len(set(h)) == 3][0]
        code, out, _ = run(capsys, "--format", "json", command, "cyclic:3", "symmetric:3")
        assert code == 0 and json.loads(out)["hom"] == first


class TestBadInputFiles:
    """Input files that cannot be read, decoded or parsed end in a typed error and exit 2."""

    def test_undecodable_spec_file(self, capsys, tmp_path):
        f = tmp_path / "b.spec"
        f.write_bytes(b"\xff")
        code, out, err = run(capsys, "classify", str(f), "cyclic:3")
        assert code == 2 and out == ""
        assert err.startswith("error:unreadable-input:")

    def test_directory_as_spec(self, capsys, tmp_path):
        code, out, err = run(capsys, "group", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:unreadable-input:")

    def test_undecodable_hom_file(self, capsys, tmp_path):
        f = tmp_path / "hom.txt"
        f.write_bytes(b"0 \xfe\xff\n")
        code, out, err = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:unreadable-input:")

    @pytest.mark.parametrize("text, why", [
        ("0 x\n", "must contain integers"),
        ("0 2 0\n", "has 3 entries"),
        ("0 7\n", "out-of-range"),
        ("0 1\n", "hom file"),
    ], ids=["not-integers", "wrong-count", "out-of-range", "not-a-hom"])
    def test_malformed_hom_file(self, capsys, tmp_path, text, why):
        f = tmp_path / "hom.txt"
        f.write_text(text)
        code, out, err = run(capsys, "classify", "cyclic:2", "cyclic:4", "--hom", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:malformed-hom:") and why in err

    def test_generator_images_of_two_generators_that_are_no_hom(self, capsys, tmp_path):
        H, G = standard_group("product:cyclic:2,cyclic:2"), standard_group("symmetric:3")
        images = np.flatnonzero(G.element_orders == 2)[:2]  # two transpositions, which do not commute
        assert len(_gen_array(H)) == 2
        assert not (enumerate_homs(H, G).matrix[:, _gen_array(H)] == images).all(axis=1).any()
        f = tmp_path / "hom.txt"
        f.write_text(" ".join(map(str, images)) + "\n")
        code, out, err = run(capsys, "classify", "product:cyclic:2,cyclic:2", "symmetric:3", "--hom", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:malformed-hom:") and "hom file" in err
        assert err.endswith(": map is not multiplicative\n")


class TestVerifyCommand:
    def test_text_has_violations_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cogalois", "--max-order", "6")
        assert code == 0 and "violations: 0" in out

    def test_json_determinism_across_jobs(self, capsys):
        from conftest import forget_memos
        from grouper.corpus import generate_corpus

        code1, out1, _ = run(capsys, "--format", "json", "verify",
                             "--suite", "galois", "--max-order", "8", "--jobs", "1")
        forget_memos(generate_corpus(8))  # the cached standard groups the second run reads
        code8, out8, _ = run(capsys, "--format", "json", "verify",
                             "--suite", "galois", "--max-order", "8", "--jobs", "8")
        assert code1 == code8 == 0
        assert out1 == out8

    def test_assert_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "galois", "--max-order", "4", "--assert")
        assert code == 0

    @pytest.mark.parametrize("max_order", ["0", "-3", "513", "600"])
    def test_max_order_out_of_range_exit_two(self, capsys, max_order):
        code, out, err = run(capsys, "verify", "--suite", "galois", "--max-order", max_order)
        assert code == 2 and out == ""
        assert err.startswith("error:order-cap-exceeded:")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_two(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--suite", "galois", "--max-order", "4", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error:invalid-option: --jobs must be at least 1, got {jobs}\n"

    def test_max_order_one_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "galois", "--max-order", "1")
        assert code == 0 and "pairs-examined: 1" in out


class TestRemovedOptions:
    """The disk hom cache and the top-level --jobs are gone; argparse rejects them."""

    def test_cache_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--cache", str(tmp_path), "homs", "cyclic:5", "cyclic:5"])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_top_level_jobs_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "8", "verify", "--suite", "galois", "--max-order", "4"])
        assert exc.value.code == 2


def test_reader_closing_the_pipe_early_ends_with_status_141():
    """165 KB of JSON into a reader that takes one line: exit 128 + SIGPIPE, no traceback."""
    spec = "product:cyclic:2,cyclic:2,cyclic:4"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "grouper.cli", "--format", "json", "homs", spec, spec],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
