"""The SMT roofline companion model."""

import pytest

from repro.machine.config import KNF
from repro.models.smt_model import saturation_threads, smt_speedup


class TestSmtSpeedup:
    def test_single_thread_is_one(self):
        assert smt_speedup(100, 400, 1, KNF) == pytest.approx(1.0)

    def test_memory_bound_linear(self):
        """stall >> compute: linear up to the full SMT thread count."""
        t = KNF.max_threads
        assert smt_speedup(1, 1e9, t, KNF) == pytest.approx(t)

    def test_compute_bound_caps_at_cores(self):
        s = smt_speedup(1000, 0, KNF.max_threads, KNF)
        assert s == pytest.approx(KNF.n_cores)

    def test_mixed_regime(self):
        # stall = compute: cap = 2 * cores
        s = smt_speedup(100, 100, KNF.max_threads, KNF)
        assert s == pytest.approx(2 * KNF.n_cores * 124 / 124, rel=0.05)

    def test_monotone_until_saturation(self):
        curve = [smt_speedup(100, 300, t, KNF) for t in range(1, 32)]
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_saturation_point(self):
        assert saturation_threads(100, 300, KNF) == pytest.approx(4 * 31)
        assert saturation_threads(100, 0, KNF) == pytest.approx(31)

    def test_invalid(self):
        with pytest.raises(ValueError):
            smt_speedup(0, 1, 1, KNF)
        with pytest.raises(ValueError):
            smt_speedup(1, -1, 1, KNF)
        with pytest.raises(ValueError):
            smt_speedup(1, 1, 0, KNF)
        with pytest.raises(ValueError):
            smt_speedup(1, 1, KNF.max_threads + 1, KNF)
        with pytest.raises(ValueError):
            saturation_threads(0, 1, KNF)
