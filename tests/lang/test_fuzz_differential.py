"""Source-level differential fuzzing (``repro.lang.fuzz``).

The fast tier runs a handful of pinned seeds through the full
parse → sema → lower → schedule → replay cross-check on both targets;
the bounded ``fuzz``-marked sweep (CI's non-blocking lang-smoke job,
``pytest -m fuzz``) covers ~200 programs.
"""

import random

import pytest

from repro.lang import compile_source
from repro.lang.fuzz import (
    SourceNestSpec, differential_check, random_source_nest,
)


class TestGenerator:
    def test_emits_compilable_source(self):
        rng = random.Random(0)
        for _ in range(20):
            text = random_source_nest(rng, SourceNestSpec.sample(rng))
            prog = compile_source(text)
            assert prog.arrays["out"].output

    def test_deterministic_per_seed(self):
        a = random_source_nest(random.Random(42))
        b = random_source_nest(random.Random(42))
        assert a == b

    def test_spec_knobs_respected(self):
        spec = SourceNestSpec(m=6, n=3, use_rom=False, seed_arrays=1)
        text = random_source_nest(random.Random(1), spec)
        assert "rom" not in text and "in1[" not in text
        assert "i < 6" in text and "j < 3" in text


class TestDifferentialFast:
    @pytest.mark.parametrize("target", ["acev", "vliw4"])
    def test_pinned_seeds_pass(self, target):
        problems = []
        for seed in range(4):
            problems += differential_check(seed, target)
        assert problems == []

    def test_backtrack_scheduler_seed(self):
        assert differential_check(100, "acev", scheduler="backtrack") == []


@pytest.mark.fuzz
class TestBoundedFuzz:
    def test_sweep_200_programs(self):
        # 100 seeds x 2 targets = 200 differential runs, seed-pinned
        problems = [p for seed in range(100) for target in ("acev", "vliw4")
                    for p in differential_check(seed, target)]
        assert problems == [], "\n".join(problems)
