import json

import numpy as np
import pytest

from nndiff.errors import PerfModelError
from nndiff.perf import (
    PerfEnvelope,
    arithmetic_intensity,
    efficiency,
    report_as_dict,
)
from nndiff.sparse import CsrMatrix, OpLedger, axpy, dot, spmv


class TestArithmeticIntensity:
    def test_single_dot(self):
        led = OpLedger()
        dot(np.ones(1), np.ones(1), led)
        assert arithmetic_intensity(led) == pytest.approx(2.0 / 24.0)

    def test_single_axpy(self):
        led = OpLedger()
        axpy(np.ones(10), 2.0, np.ones(10), led)
        assert arithmetic_intensity(led) == pytest.approx(20.0 / 240.0)

    def test_spmv_named_case(self):
        led = OpLedger()
        led.record("spmv", 2 * 500, 4 * (100 + 500) + 8 * (200 + 500))
        assert arithmetic_intensity(led) == pytest.approx(0.125)

    def test_zero_bytes_error(self):
        with pytest.raises(PerfModelError):
            arithmetic_intensity(OpLedger())

    def test_invariant_under_scaling(self):
        led1, led5 = OpLedger(), OpLedger()
        ops = [("dot", 20, 168), ("spmv", 1000, 8000), ("axpy", 20, 240)]
        for name, f, b in ops:
            led1.record(name, f, b)
            for _ in range(5):
                led5.record(name, f, b)
        assert arithmetic_intensity(led1) == arithmetic_intensity(led5)


class TestEfficiency:
    ENVELOPE = PerfEnvelope(tpp=9.2e9, streams_bw=5.65e9)

    def test_memory_bound_ideal_rate(self):
        led = OpLedger()
        led.record("spmv", 1000, 8000)  # AI = 0.125
        rep = efficiency(led, wall_time=1.0, envelope=self.ENVELOPE)
        assert rep.bound == "memory"
        assert rep.ideal_rate == pytest.approx(0.70625e9, rel=1e-15)

    def test_hundred_percent(self):
        led = OpLedger()
        led.record("spmv", 1000, 8000)
        ideal = 0.125 * 5.65e9
        rep = efficiency(led, wall_time=1000.0 / ideal, envelope=self.ENVELOPE)
        assert rep.efficiency_pct == pytest.approx(100.0)
        assert not rep.over_unity

    def test_compute_bound_branch(self):
        led = OpLedger()
        led.record("dense", 10**9, 10**7)  # AI = 100 -> bw bound 565e9 > tpp
        rep = efficiency(led, wall_time=1.0, envelope=self.ENVELOPE)
        assert rep.bound == "compute"
        assert rep.ideal_rate == 9.2e9

    def test_over_unity_flag(self):
        led = OpLedger()
        led.record("bulk", 10**9, 10**10)  # AI = 0.1, ideal 5.65e8
        rep = efficiency(led, wall_time=1.0, envelope=self.ENVELOPE)
        assert rep.ideal_rate == pytest.approx(5.65e8)
        assert rep.efficiency_pct == pytest.approx(100.0 * 1e9 / 5.65e8)
        assert rep.efficiency_pct > 100.0
        assert rep.over_unity

    def test_monotone_in_wall_time(self):
        led = OpLedger()
        led.record("spmv", 1000, 8000)
        effs = [
            efficiency(led, wall_time=t, envelope=self.ENVELOPE).efficiency_pct
            for t in (1e-6, 1e-5, 1e-4)
        ]
        assert effs[0] > effs[1] > effs[2]

    def test_kernel_table_sums_to_totals(self):
        rng = np.random.default_rng(0)
        led = OpLedger()
        a = CsrMatrix.identity(7)
        spmv(a, np.ones(7), led)
        dot(np.ones(3), np.ones(3), led)
        axpy(np.ones(4), 1.0, np.ones(4), led)
        rep = efficiency(led, 1.0, self.ENVELOPE)
        assert sum(k["flops"] for k in rep.kernels) == rep.flops
        assert sum(k["bytes"] for k in rep.kernels) == rep.bytes

    def test_json_round_trip(self):
        led = OpLedger()
        led.record("spmv", 1000, 8000)
        rep = efficiency(led, 0.5, self.ENVELOPE)
        data = json.loads(json.dumps(report_as_dict(rep)))
        for key in (
            "flops", "bytes", "ai", "wall_time_s", "measured_flops_per_s",
            "ideal_flops_per_s", "efficiency_pct", "bound", "kernels",
        ):
            assert key in data
        assert data == report_as_dict(rep)

    def test_bad_inputs(self):
        led = OpLedger()
        led.record("spmv", 1, 8)
        with pytest.raises(PerfModelError):
            efficiency(led, 0.0, self.ENVELOPE)
        with pytest.raises(PerfModelError):
            PerfEnvelope(tpp=0.0, streams_bw=1.0)
