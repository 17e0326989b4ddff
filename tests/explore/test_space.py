"""Design-space declaration: enumeration, composition, stable hashes."""

import pytest

from repro.explore import DesignQuery, DesignSpace, table_sweep_space


class TestDesignQuery:
    def test_hash_deterministic(self):
        a = DesignQuery("iir", "squash", ds=4)
        b = DesignQuery("iir", "squash", ds=4)
        assert a == b
        assert a.query_hash == b.query_hash
        assert len(a.query_hash) == 24

    def test_hash_roundtrips_through_dict(self):
        q = DesignQuery("des-mem", "jam+squash", ds=4, jam=2,
                        target_spec="acev::ports=1")
        again = DesignQuery(**q.to_dict())
        assert again == q and again.query_hash == q.query_hash

    def test_hash_distinguishes_every_field(self):
        base = DesignQuery("iir", "squash", ds=4)
        variants = [
            DesignQuery("des-hw", "squash", ds=4),
            DesignQuery("iir", "jam", ds=4),
            DesignQuery("iir", "squash", ds=8),
            DesignQuery("iir", "jam+squash", ds=4, jam=2),
            DesignQuery("iir", "squash", ds=4, target_spec="garp"),
        ]
        hashes = {base.query_hash} | {v.query_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_inactive_factors_normalize(self):
        # factors a variant ignores must not split the cache key
        assert DesignQuery("iir", "original", ds=8, jam=4) == \
            DesignQuery("iir", "original")
        assert DesignQuery("iir", "squash", ds=4, jam=2) == \
            DesignQuery("iir", "squash", ds=4)
        assert DesignQuery("iir", "squash", ds=4, jam=2).query_hash == \
            DesignQuery("iir", "squash", ds=4).query_hash

    def test_known_hash_value_is_stable(self):
        # Pinned: the persistent cache key must not drift across
        # releases, or every stored result silently invalidates.
        # (Re-pinned when the query schema gained the scheduler axis.)
        assert DesignQuery("iir", "squash", ds=2).query_hash == \
            "aeac6b01ce0fb89f28c1912d"

    def test_hash_is_computed_once_and_stays_out_of_the_fields(self):
        import pickle

        q = DesignQuery("iir", "jam", ds=4)
        assert q.query_hash is q.query_hash   # read once, then kept
        fresh = DesignQuery("iir", "jam", ds=4)
        assert fresh == q and hash(fresh) == hash(q)
        assert "query_hash" not in q.to_dict() and "query_hash" not in repr(q)
        again = pickle.loads(pickle.dumps(q))
        assert again == q and again.query_hash == q.query_hash

    def test_labels(self):
        assert DesignQuery("iir", "original").label == "original"
        assert DesignQuery("iir", "squash", ds=8).label == "squash(8)"
        assert DesignQuery("iir", "jam+squash", ds=4, jam=2).label == \
            "jam(2)+squash(4)"

    def test_rejects_bad_variant_and_factors(self):
        with pytest.raises(ValueError):
            DesignQuery("iir", "unrolled")
        with pytest.raises(ValueError):
            DesignQuery("iir", "squash", ds=0)

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            DesignQuery("iir", "squash", ds=2, scheduler="annealing")

    def test_scheduler_distinguishes_hash_and_label(self):
        a = DesignQuery("iir", "squash", ds=2)
        b = DesignQuery("iir", "squash", ds=2, scheduler="backtrack")
        assert a.query_hash != b.query_hash
        assert b.label == "squash(2)@backtrack"

    def test_original_normalizes_scheduler(self):
        # The original design is list-scheduled whatever the strategy:
        # queries must collapse to one cache entry.
        assert DesignQuery("iir", "original", scheduler="backtrack") == \
            DesignQuery("iir", "original")


class TestDesignSpace:
    def test_enumerate_counts(self):
        space = DesignSpace(kernels=("iir", "des-hw"), factors=(2, 4),
                            jam_factors=(2,),
                            variants=("original", "pipelined", "squash",
                                      "jam", "jam+squash"))
        # per kernel: 1 + 1 + 2 + 2 + (1*2) = 8
        assert space.size == 16

    def test_enumeration_order_deterministic(self):
        space = DesignSpace(kernels=("iir",), factors=(2, 4))
        assert space.enumerate() == space.enumerate()
        labels = [q.label for q in space.enumerate()]
        assert labels == ["original", "pipelined", "squash(2)",
                          "squash(4)", "jam(2)", "jam(4)"]

    def test_union_composes_and_dedupes(self):
        a = DesignSpace(kernels=("iir",), factors=(2,))
        b = DesignSpace(kernels=("iir",), factors=(2, 4),
                        variants=("squash",))
        both = a | b
        labels = [q.label for q in both.enumerate()]
        # squash(2) appears once even though both spaces contain it
        assert labels.count("squash(2)") == 1
        assert "squash(4)" in labels
        assert both.size == a.size + 1

    def test_union_across_targets(self):
        a = DesignSpace(kernels=("iir",), factors=(2,),
                        target_specs=("acev",))
        b = DesignSpace(kernels=("iir",), factors=(2,),
                        target_specs=("acev::ports=1",))
        assert (a | b).size == 2 * a.size

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            DesignSpace(kernels=("iir",), variants=("bogus",))

    def test_scheduler_axis_dedupes_original(self):
        space = DesignSpace(kernels=("iir",), factors=(2,),
                            variants=("original", "pipelined", "squash"),
                            schedulers=("modulo", "backtrack"))
        labels = [q.label for q in space.enumerate()]
        # original collapses across strategies; the rest split
        assert labels.count("original") == 1
        assert "pipelined@modulo" in labels
        assert "squash(2)@backtrack" in labels
        assert space.size == 1 + 2 * 2

    def test_table_sweep_space_matches_variant_labels(self):
        space = table_sweep_space(["iir"], factors=(2, 4, 8, 16))
        labels = [q.label for q in space.enumerate()]
        assert labels == ["original", "pipelined", "squash(2)",
                          "squash(4)", "squash(8)", "squash(16)",
                          "jam(2)", "jam(4)", "jam(8)", "jam(16)"]
