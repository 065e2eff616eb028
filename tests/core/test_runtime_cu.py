"""Runtime + configuration unit integration: the full descriptor path."""

import numpy as np
import pytest

from repro.accel import (AxpyParams, DotParams, FftParams, ResmpParams,
                         DTYPE_C64)
from repro.accel.base import pack_strides
from repro.core import (MealibSystem, ParamStore, MealibRuntimeError,
                        DescriptorError)
from repro.metrics import ZERO


@pytest.fixture
def system():
    return MealibSystem(stack_bytes=256 << 20)


def make_axpy_plan(system, n=1024, alpha=2.0):
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    store = ParamStore()
    store.add("a.para", AxpyParams(n=n, alpha=alpha, x_pa=xb.pa,
                                   y_pa=yb.pa).pack())
    plan = system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                   in_size=n * 8, out_size=n * 4)
    return plan, x, y


class TestRuntime:
    def test_execute_is_functional(self, system):
        plan, x, y = make_axpy_plan(system, alpha=3.0)
        result = system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(1024, 4.0, np.float32))
        assert result.time > 0 and result.energy > 0

    def test_plan_reusable(self, system):
        """One acc_plan, many acc_execute — the Fig 12b software loop."""
        plan, x, y = make_axpy_plan(system, alpha=1.0)
        for _ in range(3):
            system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(1024, 4.0, np.float32))
        assert plan.executions == 3

    def test_destroy_releases_slot(self, system):
        plan, _, _ = make_axpy_plan(system)
        free_before = system.runtime._command_alloc.free_bytes
        system.runtime.acc_destroy(plan)
        assert system.runtime._command_alloc.free_bytes > free_before
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_execute(plan)
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_destroy(plan)

    def test_negative_sizes_rejected(self, system):
        store = ParamStore()
        store.add("a.para", b"\x00" * AxpyParams.SIZE)
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                    in_size=-1, out_size=0)

    def test_ledger_accumulates(self, system):
        plan, _, _ = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        ledger = system.runtime.ledger
        assert ledger.total("invocation").time > 0
        assert ledger.total("accelerator").time > 0
        assert "AXPY" in ledger.by_label("accelerator")
        total = ledger.total()
        assert total.time == pytest.approx(
            ledger.total("invocation").time
            + ledger.total("accelerator").time)

    def test_descriptor_resides_in_command_space(self, system):
        plan, _, _ = make_axpy_plan(system)
        assert plan.descriptor.base_pa < system.space.command_bytes

    def test_invocation_overhead_included(self, system):
        plan, _, _ = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        overhead = system.runtime.invocation.total(
            plan.descriptor.size, plan.working_set_bytes)
        assert result.time > overhead.time


class TestLoopsAndStrides:
    def test_loop_advances_addresses(self, system):
        rows, n = 8, 256
        xb, x = system.space.alloc_array((rows, n), np.float32)
        yb, y = system.space.alloc_array((rows, n), np.float32)
        x[:] = np.arange(rows, dtype=np.float32)[:, None]
        y[:] = 0.0
        store = ParamStore()
        base = AxpyParams(n=n, alpha=1.0, x_pa=xb.pa, y_pa=yb.pa)
        store.add("a.para", base.pack() + pack_strides(
            AxpyParams, {"x_pa": n * 4, "y_pa": n * 4}))
        plan = system.runtime.acc_plan(
            f"LOOP {rows} {{ PASS {{ COMP AXPY a.para }} }}", store,
            in_size=rows * n * 4, out_size=rows * n * 4)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y[:, 0],
                                      np.arange(rows, dtype=np.float32))

    def test_loop_counts_invocations(self, system):
        plan, _, _ = make_axpy_plan(system)
        execution = system.config_unit.run_descriptor  # smoke: attribute
        assert callable(execution)
        assert plan.program.invocation_count() == 1

    def test_stap_shaped_dot_loop(self, system):
        """Many strided cdotc calls collapsed into one LOOP descriptor."""
        iters, n = 16, 32
        xb, x = system.space.alloc_array((iters, n), np.complex64)
        yb, y = system.space.alloc_array((iters, n), np.complex64)
        ob, out = system.space.alloc_array((iters,), np.complex64)
        rng = np.random.default_rng(0)
        x[:] = rng.standard_normal((iters, n)) + 1j
        y[:] = rng.standard_normal((iters, n)) - 1j
        store = ParamStore()
        base = DotParams(n=n, x_pa=xb.pa, y_pa=yb.pa, out_pa=ob.pa,
                         dtype=DTYPE_C64)
        store.add("d.para", base.pack() + pack_strides(
            DotParams, {"x_pa": n * 8, "y_pa": n * 8, "out_pa": 8}))
        plan = system.runtime.acc_plan(
            f"LOOP {iters} {{ PASS {{ COMP DOT d.para }} }}", store,
            in_size=iters * n * 16, out_size=iters * 8)
        system.runtime.acc_execute(plan)
        for i in range(iters):
            assert complex(out[i]) == pytest.approx(
                complex(np.vdot(x[i], y[i])), rel=1e-3)


class TestConfigUnit:
    def test_descriptor_without_start_rejected(self, system):
        plan, _, _ = make_axpy_plan(system)
        # descriptor is written with CMD_IDLE; decoding directly must fail
        with pytest.raises(DescriptorError):
            system.config_unit.decode(plan.descriptor.base_pa)

    def test_chained_pass_faster_than_two_passes(self, system):
        n = 512
        in_pa = 0x100000
        mid_pa = in_pa + n * n * 8 + n * n * 4
        out_pa = mid_pa + n * n * 8
        knots_pa = out_pa + n * n * 8
        rp = ResmpParams(blocks=n, n_in=n, n_out=n, in_pa=in_pa,
                         sites_pa=in_pa + n * n * 8, out_pa=mid_pa,
                         knots_pa=knots_pa)
        fp = FftParams(n=n, batch=n, src_pa=mid_pa, dst_pa=out_pa)
        ws = n * n * 8
        store = ParamStore()
        store.add("r.para", rp.pack())
        store.add("f.para", fp.pack())
        chained = system.runtime.acc_plan(
            "PASS { COMP RESMP r.para COMP FFT f.para }", store,
            in_size=ws, out_size=ws)
        t_chained = system.runtime.acc_execute(chained,
                                               functional=False).time
        s1, s2 = ParamStore(), ParamStore()
        s1.add("r.para", rp.pack())
        s2.add("f.para", fp.pack())
        p1 = system.runtime.acc_plan("PASS { COMP RESMP r.para }", s1,
                                     in_size=ws, out_size=ws)
        p2 = system.runtime.acc_plan("PASS { COMP FFT f.para }", s2,
                                     in_size=ws, out_size=ws)
        t_separate = (system.runtime.acc_execute(p1, functional=False)
                      .plus(system.runtime.acc_execute(
                          p2, functional=False))).time
        assert t_chained < t_separate

    def test_hw_loop_faster_than_sw_loop(self, system):
        n, count = 256, 16
        fp = FftParams(n=n, batch=n, src_pa=0x100000,
                       dst_pa=0x100000 + n * n * 8)
        ws = n * n * 8
        store = ParamStore()
        store.add("f.para", fp.pack())
        hw = system.runtime.acc_plan(
            f"LOOP {count} {{ PASS {{ COMP FFT f.para }} }}", store,
            in_size=ws, out_size=ws)
        t_hw = system.runtime.acc_execute(hw, functional=False).time
        store2 = ParamStore()
        store2.add("f.para", fp.pack())
        sw = system.runtime.acc_plan("PASS { COMP FFT f.para }", store2,
                                     in_size=ws, out_size=ws)
        t_sw = ZERO
        for _ in range(count):
            t_sw = t_sw.plus(system.runtime.acc_execute(
                sw, functional=False))
        assert t_hw < t_sw.time

    def test_breakdown_reports_by_accelerator(self, system):
        plan, _, _ = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        host, accel, invocation = system.breakdown()
        assert accel.time > 0
        assert invocation.time > 0
        assert host.time == 0
