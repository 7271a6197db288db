import pytest

from rasched.rational import Frac
from rasched.generator import GenSpec, generate_instance
from rasched.model import MAX_MACHINES, serialize_instance, parse_instance


class TestGenerator:
    def test_fixed_seed_reproduces(self):
        spec = GenSpec(machines=3, jobs=12, preset="huge_heavy", seed=99)
        assert serialize_instance(generate_instance(spec)) == \
            serialize_instance(generate_instance(spec))

    @pytest.mark.parametrize("field", ["machines", "jobs"])
    def test_counts_are_capped(self, field):
        counts = {"machines": 3, "jobs": 6}
        assert GenSpec(**{**counts, field: MAX_MACHINES}).jobs >= 6
        with pytest.raises(ValueError, match=f"at most {MAX_MACHINES} machines and jobs"):
            GenSpec(**{**counts, field: MAX_MACHINES + 1})

    def test_different_seeds_differ(self):
        a = generate_instance(GenSpec(machines=3, jobs=12, seed=1))
        b = generate_instance(GenSpec(machines=3, jobs=12, seed=2))
        assert serialize_instance(a) != serialize_instance(b)

    def test_density_one_gives_full_permitted_sets(self):
        inst = generate_instance(GenSpec(machines=4, jobs=10, density=1, seed=5))
        assert all(inst.gamma[j] == frozenset({1, 2, 3, 4}) for j in inst.jobs)

    def test_every_permitted_set_nonempty(self):
        for seed in range(10):
            inst = generate_instance(GenSpec(machines=5, jobs=8,
                                             density=Frac(1, 10), seed=seed))
            assert all(inst.gamma[j] for j in inst.jobs)

    @pytest.mark.parametrize("seed", range(10))
    def test_huge_heavy_hits_quota(self, seed):
        inst = generate_instance(GenSpec(machines=3, jobs=10,
                                         preset="huge_heavy", seed=seed))
        peak = inst.max_size()
        count = sum(1 for j in inst.jobs if inst.sizes[j] > Frac(5, 6) * peak)
        assert count >= 4  # at least 40% of 10

    def test_small_only_stays_low(self):
        inst = generate_instance(GenSpec(machines=2, jobs=20,
                                         preset="small_only", seed=3))
        assert all(inst.sizes[j] <= Frac(1, 2) for j in inst.jobs)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(machines=0, jobs=1)
        with pytest.raises(ValueError):
            GenSpec(machines=1, jobs=1, density=0)
        with pytest.raises(ValueError):
            GenSpec(machines=1, jobs=1, preset="nope")

    def test_output_parses_back(self):
        inst = generate_instance(GenSpec(machines=4, jobs=15,
                                         preset="collision", seed=11))
        assert parse_instance(serialize_instance(inst)) == inst
