# lint-path: src/repro/caches/example.py
class FastCache(DirectMappedCache):
    def _batch_trace(self, addresses, kinds):
        # Count in locals inside the loop; any result object is built
        # once, outside it.
        hits = 0
        for address in addresses:
            hits += 1
        return AccessResult(hit=hits > 0, set_index=0)
