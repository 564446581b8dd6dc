"""Mini-YAML parser and dumper tests (the recipe front-end)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import miniyaml
from repro.util.errors import YamlError


class TestScalars:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x: 5", 5),
            ("x: -3", -3),
            ("x: 0x10", 16),
            ("x: 2.5", 2.5),
            ("x: 1e-4", 1e-4),
            ("x: true", True),
            ("x: False", False),
            ("x: null", None),
            ("x: ~", None),
            ("x: hello", "hello"),
            ("x: 'quoted: string'", "quoted: string"),
            ('x: "with \\n escape"', "with \n escape"),
            ("x: [1, 2, 3]", [1, 2, 3]),
            ("x: {a: 1, b: two}", {"a": 1, "b": "two"}),
            ("x: []", []),
            ("x: {}", {}),
        ],
    )
    def test_scalar_parsing(self, text, expected):
        assert miniyaml.loads(text) == {"x": expected}

    def test_nested_flow(self):
        doc = miniyaml.loads("x: [1, [2, 3], {a: [4]}]")
        assert doc == {"x": [1, [2, 3], {"a": [4]}]}


class TestBlocks:
    def test_nested_mapping(self):
        doc = miniyaml.loads(
            """
base: ckpt-200
options:
  workers: 8
  cache_mode: none
"""
        )
        assert doc == {"base": "ckpt-200", "options": {"workers": 8, "cache_mode": "none"}}

    def test_sequence_of_scalars(self):
        assert miniyaml.loads("- a\n- b\n- 3") == ["a", "b", 3]

    def test_sequence_of_mappings_compact(self):
        doc = miniyaml.loads(
            """
slices:
  - slot: layers.0-7
    source: ckpt-100
  - slot: layers.8-15
    source: ckpt-200
"""
        )
        assert doc["slices"] == [
            {"slot": "layers.0-7", "source": "ckpt-100"},
            {"slot": "layers.8-15", "source": "ckpt-200"},
        ]

    def test_comments_and_blank_lines_ignored(self):
        doc = miniyaml.loads("# header\n\na: 1  # trailing\n# tail\n")
        assert doc == {"a": 1}

    def test_hash_inside_quotes_kept(self):
        assert miniyaml.loads("a: 'x # y'") == {"a": "x # y"}

    def test_document_marker_allowed_at_start(self):
        assert miniyaml.loads("---\na: 1") == {"a": 1}

    def test_empty_document_is_none(self):
        assert miniyaml.loads("") is None
        assert miniyaml.loads("# only a comment\n") is None

    def test_null_value_from_empty(self):
        assert miniyaml.loads("a:\nb: 2") == {"a": None, "b": 2}


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "a: 1\na: 2",  # duplicate key
            "\ta: 1",  # tab indent
            "a: [1, 2",  # unbalanced flow
            "a: 'unterminated",  # bad quote
            "&anchor a: 1",  # anchors unsupported
            "a: 1\n---\nb: 2",  # multi-document
            "just a bare sentence with: no\nbad",  # trailing junk
        ],
    )
    def test_rejected_documents(self, text):
        with pytest.raises(YamlError):
            miniyaml.loads(text)

    def test_sequence_item_inside_mapping_rejected(self):
        with pytest.raises(YamlError):
            miniyaml.loads("a: 1\n- b")


def deep_flow_list(depth: int) -> str:
    return "a: " + "[" * depth + "]" * depth + "\n"


def deep_block_map(depth: int) -> str:
    return "".join(" " * i + f"k{i}:\n" for i in range(depth - 1)) + " " * (depth - 1) + "k: 1\n"


def deep_block_list(depth: int) -> str:
    return "".join("  " * i + "-\n" for i in range(depth - 1)) + "  " * (depth - 1) + "- 1\n"


class TestNestingBound:
    """Hostile nesting fails typed and names its line, never recursing
    until the interpreter gives up."""

    @pytest.mark.parametrize("document, line", [
        (deep_flow_list(5000), 1),
        ("a: " + "{b: " * 5000 + "1" + "}" * 5000 + "\n", 1),
        (deep_block_map(3000), miniyaml.MAX_DEPTH + 1),
        (deep_block_list(3000), miniyaml.MAX_DEPTH + 1),
        ("- " * 3000 + "x\n", 1),
    ], ids=["flow-list", "flow-map", "block-map", "block-list", "compact-list"])
    def test_deep_documents_rejected(self, document, line):
        with pytest.raises(YamlError, match=f"line {line}: .*nested deeper than"):
            miniyaml.loads(document)

    def test_documents_at_the_bound_parse(self):
        depth = miniyaml.MAX_DEPTH
        value = miniyaml.loads(deep_flow_list(depth))["a"]
        for _ in range(depth - 1):
            (value,) = value
        assert value == []
        value = miniyaml.loads(deep_block_map(depth))
        for i in range(depth - 1):
            value = value[f"k{i}"]
        assert value == {"k": 1}
        value = miniyaml.loads(deep_block_list(depth))
        for _ in range(depth - 1):
            (value,) = value
        assert value == [1]
        with pytest.raises(YamlError):
            miniyaml.loads(deep_flow_list(depth + 1))
        with pytest.raises(YamlError):
            miniyaml.loads(deep_block_map(depth + 1))
        with pytest.raises(YamlError):
            miniyaml.loads(deep_block_list(depth + 1))


class TestDumper:
    def test_roundtrip_recipe_like_doc(self):
        doc = {
            "base_checkpoint": "runs/x/checkpoint-200",
            "output": None,
            "slices": [
                {"slot": "layers.0-7", "source": "runs/x/checkpoint-100"},
                {"slot": "layers.8-15", "source": "runs/x/checkpoint-200"},
            ],
            "aux": {"embed_tokens": "runs/x/checkpoint-100"},
            "options": {"workers": 8, "cache_mode": "none", "verify": True},
        }
        assert miniyaml.loads(miniyaml.dumps(doc)) == doc

    def test_strings_that_look_like_numbers_quoted(self):
        doc = {"version": "1.0", "flag": "true", "nothing": "null"}
        assert miniyaml.loads(miniyaml.dumps(doc)) == doc

    def test_empty_containers(self):
        doc = {"a": [], "b": {}, "c": [[], {}]}
        assert miniyaml.loads(miniyaml.dumps(doc)) == doc

    def test_file_roundtrip(self, tmp_path):
        doc = {"a": [1, 2], "b": {"c": "d"}}
        path = tmp_path / "x.yaml"
        miniyaml.dump_file(path, doc)
        assert miniyaml.load_file(path) == doc

    def test_escaped_quote_before_colon_roundtrips(self):
        """Regression: ``\\"`` inside a double-quoted scalar is not a
        closing quote, so a following ``: `` must not split a mapping key
        (found by the dump/load property test)."""
        for value in ['": ', '"', 'a\\"b: c', "ends with backslash\\"]:
            doc = {"root": [value], "flow": {"k": value}}
            assert miniyaml.loads(miniyaml.dumps(doc)) == doc

    def test_escaped_quote_does_not_hide_comment_handling(self):
        assert miniyaml.loads('key: "a \\" # not a comment"') == {
            "key": 'a " # not a comment'
        }


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9),
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-./ :#'\"",
        max_size=20,
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(
                st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
                children,
                max_size=4,
            ),
        ),
        max_leaves=12,
    )
)
def test_property_dump_load_roundtrip(value):
    """Anything the dumper emits, the parser reads back identically."""
    document = miniyaml.dumps({"root": value})
    assert miniyaml.loads(document) == {"root": value}
