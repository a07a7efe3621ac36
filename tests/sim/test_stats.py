"""LoopStats / ChunkExec accounting."""

from repro.sim.stats import ChunkExec, LoopStats


class TestChunkExec:
    def test_derived_fields(self):
        c = ChunkExec(lo=10, hi=25, thread=3, start=100.0, end=160.0)
        assert c.size == 15
        assert c.duration == 60.0


class TestLoopStats:
    def test_n_chunks(self):
        s = LoopStats()
        s.chunks.append(ChunkExec(0, 5, 0, 0.0, 1.0))
        assert s.n_chunks == 1
