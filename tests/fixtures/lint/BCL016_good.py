# lint-path: src/repro/caches/example.py
class ColumnarBatch(DirectMappedCache):
    def _batch_trace(self, addresses, kinds):
        misses = 0
        for address in addresses:
            misses += self._access_block(address >> 5)
        self.stats.misses += misses
        return self.stats
