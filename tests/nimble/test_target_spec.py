"""decode_target round-trips: every documented modifier parses,
re-encodes into the Target name, and distinguishes DesignQuery hashes.

The spec string is the persistent-cache identity of a target choice
(``DesignQuery.target_spec`` participates in the content hash), and the
decoded ``Target.name`` is how a derived target shows up in reports and
error provenance — both sides must reflect every modifier.
"""

import pytest

from repro.errors import ReproError
from repro.explore.space import DesignQuery
from repro.nimble.target import ACEV, VLIW4, decode_target, target_by_name

#: (spec, expected decoded name) for every documented modifier.
ROUND_TRIPS = [
    # generic modifiers, on the spatial targets
    ("acev", "acev"),
    ("acev::ports=1", "acev-p1"),
    ("acev::reg_rows=0.25", "acev-packed"),
    ("acev::clock=66", "acev-c66"),
    ("acev::scheduler=backtrack", "acev"),   # strategy, not hardware
    ("garp::delay.mul=4", "garp-mul4"),
    ("garp::delay.mul=4,ports=2", "garp-mul4-p2"),
    # VLIW machine-description modifiers
    ("vliw4", "vliw4"),
    ("vliw4::issue=8", "vliw4-i8"),
    ("vliw4::alu=4", "vliw4-alu4"),
    ("vliw4::mul=2", "vliw4-mul2"),
    ("vliw4::mem=1", "vliw4-p1"),
    ("vliw4::ports=1", "vliw4-p1"),          # generic alias of mem=
    ("vliw4::br=2", "vliw4-br2"),
    ("vliw4::regs=128", "vliw4-r128"),
    ("vliw4::rotating=0", "vliw4-rot0"),
    ("vliw4::mul=2,regs=64,scheduler=exact", "vliw4-mul2-r64"),
    ("vliw4::issue=8,alu=4,mul=2,mem=2,br=1,regs=256,rotating=1",
     "vliw4-i8-alu4-mul2-p2-br1-r256-rot1"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("spec,name", ROUND_TRIPS)
    def test_modifier_reencodes_into_name(self, spec, name):
        assert decode_target(spec).name == name

    def test_decode_is_memoized_per_spec(self):
        assert decode_target("vliw4::mul=2") is decode_target("vliw4::mul=2")

    def test_scheduler_modifier_sets_strategy(self):
        t = decode_target("vliw4::scheduler=exact")
        assert t.scheduler == "exact" and t.name == "vliw4"

    def test_vliw_modifiers_change_the_machine(self):
        t = decode_target("vliw4::issue=8,alu=4,mul=2,regs=128,rotating=0")
        lib = t.library
        assert lib.resource_slots() == {"issue": 8, "alu": 4, "mul": 2,
                                        "mem": 2}
        assert lib.register_file == 128 and lib.rotating is False

    def test_mem_and_ports_are_the_same_axis(self):
        assert decode_target("vliw4::mem=1").library.mem_ports == 1
        assert decode_target("vliw4::ports=1").library.mem_ports == 1

    def test_base_targets_are_registered(self):
        assert target_by_name("vliw4") is VLIW4
        assert target_by_name("acev") is ACEV


class TestQueryHashes:
    def test_distinct_targets_hash_distinctly(self):
        specs = [spec for spec, _ in ROUND_TRIPS]
        hashes = {}
        for spec in specs:
            q = DesignQuery("iir", "pipelined", target_spec=spec)
            hashes.setdefault(q.query_hash, []).append(spec)
        for h, group in hashes.items():
            assert len(group) == 1, \
                f"target specs {group} collide on content hash {h}"

    def test_same_spec_same_hash(self):
        a = DesignQuery("iir", "squash", ds=4, target_spec="vliw4::mul=2")
        b = DesignQuery("iir", "squash", ds=4, target_spec="vliw4::mul=2")
        assert a.query_hash == b.query_hash

    def test_hash_covers_every_axis_together(self):
        base = DesignQuery("iir", "squash", ds=4, target_spec="vliw4")
        for other in (
            DesignQuery("iir", "squash", ds=8, target_spec="vliw4"),
            DesignQuery("iir", "squash", ds=4, target_spec="vliw4::regs=32"),
            DesignQuery("iir", "squash", ds=4, target_spec="vliw4",
                        scheduler="exact"),
            DesignQuery("des-mem", "squash", ds=4, target_spec="vliw4"),
        ):
            assert other.query_hash != base.query_hash


class TestErrors:
    def test_unknown_modifier_names_the_known_set(self):
        with pytest.raises(ReproError, match="known modifiers"):
            decode_target("acev::bogus=1")

    def test_unknown_modifier_did_you_mean(self):
        with pytest.raises(ReproError, match="did you mean 'mul'"):
            decode_target("vliw4::mull=2")

    def test_vliw_modifiers_rejected_on_spatial_targets(self):
        with pytest.raises(ReproError, match="unknown modifier 'issue'"):
            decode_target("acev::issue=8")

    def test_unknown_delay_op_names_operators(self):
        with pytest.raises(ReproError, match="known operators"):
            decode_target("acev::delay.bogus=3")

    def test_malformed_modifier_values_are_repro_errors(self):
        for spec in ("vliw4::regs=abc", "vliw4::issue=", "acev::ports=two",
                     "acev::clock=fast", "vliw4::rotating=maybe"):
            with pytest.raises(ReproError, match="invalid value"):
                decode_target(spec)

    def test_invalid_machine_shape_is_a_repro_error(self):
        with pytest.raises(ReproError, match="issue width"):
            decode_target("vliw4::issue=0")
        with pytest.raises(ReproError, match="branch unit"):
            decode_target("vliw4::br=0")
        with pytest.raises(ReproError, match="register file"):
            decode_target("vliw4::regs=0")
