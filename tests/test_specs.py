import pytest

from grouper.errors import SpecParseError
from grouper.groups import _FAMILIES, are_isomorphic, standard_group
from grouper.homs import end_set, enumerate_homs
from grouper.specs import GroupSpecFile, parse_group_spec, spec_for_group


class TestFamilySpecs:
    def test_cyclic(self):
        spec = parse_group_spec("cyclic:4")
        assert spec.kind == "family"
        assert spec.build().order == 4

    def test_product(self):
        G = parse_group_spec("product:cyclic:2,cyclic:4").build()
        assert G.order == 8 and G.is_abelian

    @pytest.mark.parametrize(
        "typed,lower",
        [("Cyclic:4", "cyclic:4"), ("QUATERNION8", "quaternion8"),
         ("Product:Cyclic:2,cyclic:3", "product:cyclic:2,cyclic:3")],
    )
    def test_case_insensitive(self, typed, lower):
        assert parse_group_spec(typed).build() is standard_group(lower)

    @pytest.mark.parametrize("head", [*_FAMILIES, "quaternion8", "product"])
    def test_every_family_head_parses_as_a_family(self, head):
        """Every family of the family table, so a family added there alone is read too."""
        text = {"quaternion8": "quaternion8", "product": "product:cyclic:2,cyclic:3"}.get(head, f"{head}:3")
        assert parse_group_spec(text).kind == "family"

    def test_whitespace_insensitive(self):
        G = parse_group_spec("  dihedral:6  ").build()
        assert G.order == 6

    def test_named(self):
        G = parse_group_spec("name: MyGroup\ncyclic:6").build()
        assert G.name == "MyGroup" and G.order == 6

    def test_comments_ignored(self):
        G = parse_group_spec("# a comment\ncyclic:3 # trailing\n").build()
        assert G.order == 3


class TestPermutationSpecs:
    def test_single_three_cycle(self):
        G = parse_group_spec("(1 2 3)").build()
        assert G.order == 3

    def test_klein_from_two_generators(self):
        G = parse_group_spec("(1 2)(3 4)\n(1 3)(2 4)").build()
        assert G.order == 4
        assert set(G.element_orders.tolist()) == {1, 2}

    def test_commas_allowed(self):
        G = parse_group_spec("(1, 2, 3)(4, 5)").build()
        assert G.order == 6

    def test_mixed_degree_generators(self):
        G = parse_group_spec("(1 2)\n(1 2 3 4 5)").build()
        assert G.order == 120


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("   \n# only comments\n")

    def test_unknown_family(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("borel:5")

    def test_repeated_point(self):
        with pytest.raises(SpecParseError) as err:
            parse_group_spec("(1 2)\n(3 3 4)")
        assert err.value.line == 2

    def test_nonpositive_point(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("(0 1)")

    def test_multi_line_family(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("cyclic:2\ncyclic:3")

    def test_duplicate_name(self):
        with pytest.raises(SpecParseError):
            parse_group_spec("name: A\nname: B\ncyclic:2")


class TestRoundTrip:
    @pytest.mark.parametrize("descriptor", ["symmetric:4", "alternating:4", "dihedral:8", "quaternion8"])
    def test_emit_then_parse(self, descriptor):
        G = standard_group(descriptor)
        spec = spec_for_group(G)
        rebuilt = parse_group_spec(spec.emit()).build()
        assert are_isomorphic(G, rebuilt)

    def test_family_emit(self):
        spec = GroupSpecFile("", "family", "cyclic:9")
        assert parse_group_spec(spec.emit()).build().order == 9


class TestBuildKeepsSharedGroups:
    def test_named_family_does_not_rename_cached_group(self):
        G = parse_group_spec("name: Foo\ncyclic:4").build()
        assert G.name == "Foo" and G.order == 4
        assert standard_group("cyclic:4").name == "C4"

    def test_renamed_copy_starts_with_empty_memo(self):
        C4 = standard_group("cyclic:4")
        end_set(C4)  # memoizes End(C4), whose rows have source C4, on the shared group
        Foo = parse_group_spec("name: Foo\ncyclic:4").build()
        assert enumerate_homs(Foo, C4).homs[0].source.name == "Foo"
