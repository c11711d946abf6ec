"""Admission control: the serve-layer backpressure."""

import asyncio
import threading

import pytest

from repro.serve.admission import AdmissionController


class TestAdmissionController:
    def test_admits_up_to_limit_then_sheds(self):
        admission = AdmissionController(max_inflight=2)
        assert admission.try_admit()
        assert admission.try_admit()
        assert not admission.try_admit()
        assert admission.stats()["shed"] == 1

    def test_release_reopens_capacity(self):
        admission = AdmissionController(max_inflight=1)
        assert admission.try_admit()
        assert not admission.try_admit()
        admission.release()
        assert admission.try_admit()

    def test_release_without_admit_raises(self):
        admission = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError):
            admission.release()

    def test_drain_refuses_new_work(self):
        admission = AdmissionController(max_inflight=4)
        assert admission.try_admit()
        admission.begin_drain()
        assert admission.draining
        assert not admission.try_admit()
        # The in-flight request is unaffected.
        assert admission.inflight == 1

    def test_stats_shape(self):
        admission = AdmissionController(max_inflight=1)
        admission.try_admit()
        admission.try_admit()
        stats = admission.stats()
        assert stats == {
            "inflight": 1, "admitted": 1, "shed": 1, "draining": 0,
        }

    def test_wait_idle(self):
        admission = AdmissionController(max_inflight=2)
        admission.try_admit()

        async def scenario():
            # Release from a worker thread while the waiter polls.
            timer = threading.Timer(0.05, admission.release)
            timer.start()
            try:
                return await admission.wait_idle(timeout_seconds=5.0)
            finally:
                timer.cancel()

        assert asyncio.run(scenario())

    def test_wait_idle_times_out(self):
        admission = AdmissionController(max_inflight=2)
        admission.try_admit()

        async def scenario():
            return await admission.wait_idle(timeout_seconds=0.05)

        assert not asyncio.run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(retry_after_seconds=0)

    def test_thread_safety_never_over_admits(self):
        admission = AdmissionController(max_inflight=5)
        peak = []

        def worker():
            for _ in range(200):
                if admission.try_admit():
                    peak.append(admission.inflight)
                    admission.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(peak) <= 5
