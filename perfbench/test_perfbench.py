"""Tests of the benchmark harness's own arithmetic and checks.

    python3 -m pytest perfbench/test_perfbench.py

They need numpy but not the program: every ``repro`` boundary is
replaced by a local stand-in.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TestTailPercentile:
    def test_hundred_samples_give_p90(self):
        value, pct = measure.tail_percentile([float(i) for i in range(1, 101)])
        assert (value, pct) == (90.0, 90.0)

    def test_exactly_ten_samples_lie_beyond(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
        value, pct = measure.tail_percentile(samples)
        assert sum(s > value for s in samples) == 10
        assert value == 2.0
        assert pct == pytest.approx(100 * 2 / 12)

    def test_ten_or_fewer_samples_have_no_tail(self):
        assert measure.tail_percentile([1.0] * 10) is None


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        parent = np.array([-1, 0, 1, 0])
        np.testing.assert_allclose(
            spans.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0]
        )

    def test_recorder_links_parents_and_splits_generator_resumptions(self):
        rec = spans.SpanRecorder()

        def inner():
            return 1

        def process():
            yield "first"
            yield "second"
            return "done"

        w_inner = spans._wrap(inner, rec, "layer.inner:inner", None)

        def outer():
            return w_inner() + w_inner()

        w_outer = spans._wrap(outer, rec, "layer.outer:outer", None)
        w_process = spans._wrap(process, rec, "layer.proc:process", None)
        rec.begin_op()
        assert w_outer() == 2
        gen = w_process()
        assert list(gen) == ["first", "second"]

        names = [rec.names[i] for i in rec.name]
        assert names[:3] == ["layer.outer:outer", "layer.inner:inner", "layer.inner:inner"]
        assert list(rec.parent[:3]) == [-1, 0, 0]
        # One span per resumption: two yields plus the final return.
        assert names[3:] == ["layer.proc:process"] * 3
        assert all(rec.end[i] >= rec.start[i] for i in range(len(rec.start)))

    def test_layer_busy_is_self_time_per_op(self):
        rec = spans.SpanRecorder()
        op = rec.name_id("op")
        link = rec.name_id("network.link:Link.transmit")
        for op_id in range(2):
            rec.begin_op()
            root = len(rec.start)
            for name, start, end, parent in ((op, 0.0, 4.0, -1), (link, 1.0, 2.0, root)):
                rec.name.append(name)
                rec.start.append(start)
                rec.end.append(end)
                rec.parent.append(parent)
                rec.op.append(op_id)
            rec.count("network.link.transmits")
        out = spans.layer_metrics(rec, [0, 1], "op")
        assert out["network.link.busy_s"] == 1.0
        assert out["network.link.transmits"] == 1.0
        assert out["dnn.busy_s"] == 0.0


FINGERPRINT = {"nproc": 2, "blas": {"name": "openblas", "version": "0.3"}}


def record(**changes):
    base = {
        "schema": run.SCHEMA,
        "workload": "exchange-star",
        "inputs": {"workers": 8},
        "seconds": 20,
        "trace": 0,
        "seed": 1,
        "fingerprint": FINGERPRINT,
    }
    base.update(changes)
    return base


class TestComparability:
    def test_seeds_pool(self):
        measure.check_comparable(record(), record(seed=2))

    def test_fingerprint_mismatch_is_refused(self):
        other = dict(FINGERPRINT, nproc=4)
        with pytest.raises(measure.IncomparableResults, match="fingerprint"):
            measure.check_comparable(record(), record(fingerprint=other))

    def test_input_mismatch_is_refused(self):
        with pytest.raises(measure.IncomparableResults, match="inputs"):
            measure.check_comparable(record(), record(inputs={"workers": 4}))

    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0]
        assert measure.verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.2) == "regressed"
        assert measure.verdict(base, [1.1, 1.1, 1.1, 1.1], "lower", 0.2) == "ok"
        noisy = [0.5, 1.0, 1.5, 1.0]
        assert measure.verdict(noisy, [1.1, 1.0, 1.1, 1.0], "lower", 0.2) == "unresolved"


class TestChecks:
    def prepared(self, outputs):
        calls = iter(outputs)

        def op():
            out = next(calls)
            if isinstance(out, Exception):
                raise out
            return out

        return workloads.Prepared(inputs={}, op=op)

    def test_failed_check_is_a_failed_op(self):
        ref = {"sim_time_s": 1.0, "wire_ratio": 3.0}
        loop = run.Loop(self.prepared([ref, dict(ref, sim_time_s=1.5)]), ref)
        assert loop.one() is not None
        assert loop.one() is None
        assert loop.attempted == 2 and len(loop.failures) == 1
        assert "sim_time_s" in loop.failures[0]
        assert len(loop.samples) == 1

    def test_raising_op_is_a_failed_op(self):
        ref = {"sim_time_s": 1.0}
        loop = run.Loop(self.prepared([RuntimeError("boom")]), ref)
        assert loop.one() is None
        assert loop.attempted == 1 and "boom" in loop.failures[0]

    def test_nonfinite_loss_fails(self):
        out = {"final_loss": float("nan"), "losses": (1.0,)}
        assert workloads.check_op(out, out) == ["final_loss nan is not finite"]
