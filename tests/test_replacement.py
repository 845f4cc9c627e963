"""Unit tests for the replacement policies."""

import pytest

from repro.replacement import (
    FIFOPolicy,
    LRUPolicy,
    PolicyError,
    RandomPolicy,
    TreePLRUPolicy,
    make_policy,
    policy_names,
)


class TestLRU:
    def test_cold_fill_order(self):
        policy = LRUPolicy(4)
        assert policy.victim() == 3  # least recent of initial order

    def test_victim_is_least_recently_touched(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        assert policy.victim() == 0
        policy.touch(0)
        assert policy.victim() == 1

    def test_victim_among_respects_recency(self):
        policy = LRUPolicy(4)
        for way in (3, 2, 1, 0):
            policy.touch(way)
        # Recency (MRU first): 0,1,2,3 -> among {1,2} the LRU is 2.
        assert policy.victim_among([1, 2]) == 2

    def test_invalidate_moves_to_lru_end(self):
        policy = LRUPolicy(3)
        for way in (0, 1, 2):
            policy.touch(way)
        policy.invalidate(1)
        assert policy.victim() == 1

    def test_recency_order_snapshot(self):
        policy = LRUPolicy(3)
        policy.touch(2)
        assert policy.recency_order()[0] == 2

    def test_out_of_range_way(self):
        policy = LRUPolicy(2)
        with pytest.raises(PolicyError):
            policy.touch(2)
        with pytest.raises(PolicyError):
            policy.invalidate(-1)

    def test_victim_among_empty(self):
        with pytest.raises(ValueError):
            LRUPolicy(2).victim_among([])

    def test_lru_stack_property(self):
        """Touching a way never changes the relative order of others."""
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        before = [w for w in policy.recency_order() if w != 2]
        policy.touch(2)
        after = [w for w in policy.recency_order() if w != 2]
        assert before == after


class TestRandom:
    def test_prefers_free_ways(self):
        policy = RandomPolicy(4, seed=0)
        policy.touch(0)
        assert policy.victim() in {1, 2, 3}

    def test_deterministic_given_seed(self):
        a = RandomPolicy(8, seed=42)
        b = RandomPolicy(8, seed=42)
        for way in range(8):
            a.touch(way)
            b.touch(way)
        assert [a.victim_among(list(range(8))) for _ in range(10)] == [
            b.victim_among(list(range(8))) for _ in range(10)
        ]

    def test_victim_among_prefers_free(self):
        policy = RandomPolicy(4, seed=1)
        policy.touch(0)
        policy.touch(1)
        assert policy.victim_among([0, 2]) == 2

    def test_invalidate_returns_to_free_pool(self):
        policy = RandomPolicy(2, seed=0)
        policy.touch(0)
        policy.touch(1)
        policy.invalidate(0)
        assert policy.victim() == 0

    def test_out_of_range(self):
        with pytest.raises(PolicyError):
            RandomPolicy(2).touch(5)


class TestFIFO:
    def test_evicts_in_fill_order(self):
        policy = FIFOPolicy(3)
        for way in (0, 1, 2):
            policy.touch(way)
        assert policy.victim() == 0

    def test_hit_does_not_refresh(self):
        policy = FIFOPolicy(3)
        for way in (0, 1, 2):
            policy.touch(way)
        policy.touch(0)  # hit on resident way
        assert policy.victim() == 0

    def test_prefers_free_ways(self):
        policy = FIFOPolicy(3)
        policy.touch(1)
        assert policy.victim() in (0, 2)

    def test_victim_among(self):
        policy = FIFOPolicy(3)
        for way in (2, 0, 1):
            policy.touch(way)
        assert policy.victim_among([0, 1]) == 0

    def test_invalidate(self):
        policy = FIFOPolicy(2)
        policy.touch(0)
        policy.touch(1)
        policy.invalidate(1)
        assert policy.victim() == 1


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(PolicyError):
            TreePLRUPolicy(3)

    def test_fills_invalid_ways_first(self):
        policy = TreePLRUPolicy(4)
        policy.touch(0)
        assert policy.victim() == 1

    def test_points_away_from_recent(self):
        policy = TreePLRUPolicy(2)
        policy.touch(0)
        policy.touch(1)
        policy.touch(0)
        assert policy.victim() == 1

    def test_full_rotation(self):
        policy = TreePLRUPolicy(4)
        for way in range(4):
            policy.touch(way)
        victim = policy.victim()
        assert victim == 0  # oldest path in the tree

    def test_victim_among_prefers_invalid(self):
        policy = TreePLRUPolicy(4)
        policy.touch(0)
        policy.touch(1)
        assert policy.victim_among([1, 3]) == 3

    def test_victim_among_all_valid(self):
        policy = TreePLRUPolicy(4)
        for way in range(4):
            policy.touch(way)
        policy.touch(1)
        assert policy.victim_among([0, 1]) == 0

    def test_invalidate(self):
        policy = TreePLRUPolicy(2)
        policy.touch(0)
        policy.touch(1)
        policy.invalidate(1)
        assert policy.victim() == 1


class TestFactory:
    def test_names(self):
        assert set(policy_names()) == {"lru", "random", "fifo", "plru"}

    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUPolicy),
        ("random", RandomPolicy),
        ("fifo", FIFOPolicy),
        ("plru", TreePLRUPolicy),
    ])
    def test_instantiates(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU", 2), LRUPolicy)

    def test_unknown_name(self):
        with pytest.raises(PolicyError, match="unknown replacement policy"):
            make_policy("mru", 2)

    def test_invalid_ways(self):
        with pytest.raises(ValueError):
            make_policy("lru", 0)


class TestLRUStamps:
    """The caches keep exact LRU as recency stamps, not LRUPolicy
    objects; the order the stamps give is the order an LRUPolicy per
    set (or B-Cache row) keeps when touched on every hit and fill."""

    @pytest.mark.parametrize("spec", ("4way", "32way", "mf8_bas8", "mf2_bas4"))
    def test_recency_order_matches_lru_policy(self, spec, rng):
        from repro.caches import make_cache

        cache = make_cache(spec)
        bcache = hasattr(cache, "geometry")
        domains = cache.geometry.num_rows if bcache else cache.num_sets
        ways = cache.geometry.num_clusters if bcache else cache.ways
        reference = [LRUPolicy(ways) for _ in range(domains)]
        for _ in range(3000):
            address = rng.randrange(1 << 16)
            result = cache.access(address)
            block = address >> cache.offset_bits
            if bcache:
                reference[result.set_index % domains].touch(result.set_index // domains)
            else:
                base = result.set_index * ways
                line = cache._tags.index(block >> cache.index_bits, base, base + ways)
                reference[result.set_index].touch(line - base)
        for domain, policy in enumerate(reference):
            assert cache.recency_order(domain) == policy.recency_order()


class TestFlatColumns:
    """The caches keep fifo, plru and random in flat columns
    (``repro.replacement.Replacement``); every victim they choose is the
    one a policy object per set (or B-Cache row) chooses when touched on
    every hit and fill.  The objects are the reference models here."""

    @staticmethod
    def build(spec, policy):
        from repro.caches import HighlyAssociativeCache, make_cache

        if spec == "hac":
            return HighlyAssociativeCache(16 * 1024, policy=policy, seed=5)
        return make_cache(spec, policy=policy, seed=5)

    @pytest.mark.parametrize("policy", ("fifo", "plru", "random"))
    @pytest.mark.parametrize("spec", ("4way", "hac", "fa", "mf8_bas8", "mf2_bas4"))
    def test_victims_match_policy_objects(self, spec, policy, rng):
        cache = self.build(spec, policy)
        bcache = hasattr(cache, "geometry")
        domains = cache.geometry.num_rows if bcache else cache.num_sets
        ways = cache.geometry.num_clusters if bcache else cache.ways
        reference = [make_policy(policy, ways, seed=5 + d) for d in range(domains)]
        chosen = 0
        for _ in range(6000):
            address = rng.randrange(1 << 17)
            block = address >> cache.offset_bits
            if bcache:
                invalid = cache.decoder.invalid_clusters(block % domains)
            result = cache.access(address)
            if bcache:
                domain, way = result.set_index % domains, result.set_index // domains
            else:
                domain = result.set_index
                base = domain * ways
                way = cache._tags.index(block >> cache.index_bits, base, base + ways) - base
            policy_object = reference[domain]
            if result.hit or (bcache and result.pd_hit):
                # A hit, or the B-Cache's forced victim (a PD hit).
                expected = way
            elif bcache and invalid:
                expected = policy_object.victim_among(invalid)
            else:
                expected = policy_object.victim()
            assert way == expected
            chosen += not result.hit
            policy_object.touch(way)
        assert chosen > 1000
