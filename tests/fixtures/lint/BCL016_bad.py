# lint-path: src/repro/caches/example.py
class ObjectBatch(DirectMappedCache):
    def _batch_trace(self, addresses, kinds):
        misses = 0
        for address in addresses:
            reference = Access(address=address, kind=0)
            misses += self._access_block(reference.address >> 5)
        self.stats.misses += misses
        return self.stats
