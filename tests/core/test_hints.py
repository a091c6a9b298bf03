"""Tests for the generic hint framework (paper Section 2)."""

from __future__ import annotations

import pytest

from repro.core.hints import (
    EMPTY_HINT_SET,
    HintSchema,
    HintSet,
    HintType,
    make_hint_set,
)


def db2_like_schema() -> HintSchema:
    return HintSchema(
        client_id="db2-1",
        hint_types=[
            HintType("pool_id", domain=(0, 1)),
            HintType("object_id", domain=tuple(range(5))),
            HintType("request_type", domain=("read", "recovery_write", "replacement_write")),
        ],
    )


class TestHintType:
    def test_cardinality_closed_domain(self):
        ht = HintType("pool_id", domain=(0, 1, 2))
        assert ht.cardinality == 3

    def test_cardinality_open_domain(self):
        ht = HintType("thread_id")
        assert ht.cardinality is None

    def test_validate_accepts_domain_value(self):
        HintType("x", domain=("a", "b")).validate("a")

    def test_validate_rejects_foreign_value(self):
        with pytest.raises(ValueError):
            HintType("x", domain=("a", "b")).validate("c")

    def test_open_domain_accepts_anything(self):
        HintType("x").validate(object())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            HintType("")


class TestHintSchema:
    def test_names_in_declaration_order(self):
        schema = db2_like_schema()
        assert schema.names == ("pool_id", "object_id", "request_type")

    def test_duplicate_hint_type_names_rejected(self):
        with pytest.raises(ValueError):
            HintSchema("c", [HintType("a"), HintType("a")])

    def test_empty_client_id_rejected(self):
        with pytest.raises(ValueError):
            HintSchema("", [HintType("a")])

    def test_max_hint_sets_is_product_of_cardinalities(self):
        schema = db2_like_schema()
        assert schema.max_hint_sets() == 2 * 5 * 3

    def test_max_hint_sets_none_with_open_domain(self):
        schema = HintSchema("c", [HintType("a", domain=(1, 2)), HintType("b")])
        assert schema.max_hint_sets() is None

    def test_make_hint_set_from_mapping(self):
        schema = db2_like_schema()
        hs = schema.make_hint_set({"pool_id": 1, "object_id": 3, "request_type": "read"})
        assert hs.values == (1, 3, "read")
        assert hs.client_id == "db2-1"

    def test_make_hint_set_from_sequence(self):
        schema = db2_like_schema()
        hs = schema.make_hint_set([0, 2, "read"])
        assert dict(zip(hs.names, hs.values)) == {"pool_id": 0, "object_id": 2, "request_type": "read"}

    def test_make_hint_set_missing_value(self):
        schema = db2_like_schema()
        with pytest.raises(ValueError):
            schema.make_hint_set({"pool_id": 1, "object_id": 3})

    def test_make_hint_set_unknown_hint_type(self):
        schema = db2_like_schema()
        with pytest.raises(ValueError):
            schema.make_hint_set(
                {"pool_id": 1, "object_id": 3, "request_type": "read", "bogus": 1}
            )

    def test_make_hint_set_wrong_arity(self):
        schema = db2_like_schema()
        with pytest.raises(ValueError):
            schema.make_hint_set([1, 2])

    def test_make_hint_set_validation(self):
        schema = db2_like_schema()
        with pytest.raises(ValueError):
            schema.make_hint_set([9, 0, "read"], validate=True)

    def test_equal_values_share_one_interned_hint_set(self):
        schema = db2_like_schema()
        from_mapping = schema.make_hint_set(
            {"request_type": "read", "pool_id": 1, "object_id": 3}
        )
        from_sequence = schema.make_hint_set((1, 3, "read"))
        assert from_sequence is from_mapping
        assert schema.make_hint_set([1, 3, "read"], validate=True) is from_mapping
        assert from_mapping == HintSet("db2-1", schema.names, (1, 3, "read"))
        assert schema.make_hint_set([1, 4, "read"]) is not from_mapping

    def test_schemas_of_different_clients_never_share_an_instance(self):
        types = list(db2_like_schema().hint_types)
        a = HintSchema("client-a", types).make_hint_set([0, 0, "read"])
        b = HintSchema("client-b", types).make_hint_set([0, 0, "read"])
        assert a is not b
        assert a != b
        assert (a.client_id, b.client_id) == ("client-a", "client-b")

    def test_describe_matches_figure2_shape(self):
        rows = db2_like_schema().describe()
        assert [row["hint_type"] for row in rows] == ["pool_id", "object_id", "request_type"]
        assert rows[0]["cardinality"] == 2

    def test_contains_and_getitem(self):
        schema = db2_like_schema()
        assert "pool_id" in schema
        assert schema["pool_id"].name == "pool_id"
        assert "nope" not in schema


class TestHintSet:
    def test_equality_and_hash(self):
        a = make_hint_set("c", x=1, y="t")
        b = make_hint_set("c", x=1, y="t")
        assert a == b
        assert hash(a) == hash(b)

    def test_clients_namespace_hint_sets(self):
        # Section 2: identical hint values from different clients are distinct.
        a = make_hint_set("client-a", x=1)
        b = make_hint_set("client-b", x=1)
        assert a != b
        assert a.key() != b.key()

    def test_key_is_compact_and_stable(self):
        hs = make_hint_set("c", x=1, y=2)
        assert hs.key() == ("c", (1, 2))

    def test_get_present_and_absent(self):
        hs = make_hint_set("c", x=1)
        assert hs.get("x") == 1
        assert hs.get("missing") is None
        assert hs.get("missing", default="d") == "d"

    def test_contains(self):
        hs = make_hint_set("c", x=1)
        assert "x" in hs
        assert "y" not in hs

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            HintSet(client_id="c", names=("a",), values=(1, 2))

    def test_extended_adds_hint_types(self):
        hs = make_hint_set("c", x=1)
        ext = hs.extended(["noise_0", "noise_1"], [7, 8])
        assert dict(zip(ext.names, ext.values)) == {"x": 1, "noise_0": 7, "noise_1": 8}
        assert ext.client_id == "c"

    def test_extended_rejects_clashes(self):
        hs = make_hint_set("c", x=1)
        with pytest.raises(ValueError):
            hs.extended(["x"], [2])

    def test_extended_rejects_length_mismatch(self):
        hs = make_hint_set("c", x=1)
        with pytest.raises(ValueError):
            hs.extended(["a", "b"], [1])

    def test_empty_hint_set(self):
        assert len(EMPTY_HINT_SET) == 0
        assert EMPTY_HINT_SET.key() == ("", ())

    def test_str_mentions_client_and_values(self):
        text = str(make_hint_set("db2", pool_id=4))
        assert "db2" in text and "pool_id" in text and "4" in text
