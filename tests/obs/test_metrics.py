"""Metrics registry tests: instrument semantics, thread safety and
snapshot round-trips."""

import threading

import pytest

from repro.obs import Counter, Gauge, Metrics

pytestmark = pytest.mark.obs


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        c = Counter("n")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0

    def test_snapshot(self):
        c = Counter("n")
        c.inc(7)
        assert c.snapshot() == {"type": "counter", "value": 7.0}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(12)
        assert g.value == 3.0
        assert g.snapshot() == {"type": "gauge", "value": 3.0}


class TestMetricsRegistry:
    def test_created_on_first_use_then_shared(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.names() == ["a"]
        assert m.get("a").value == 0

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            Metrics().get("ghost")

    def test_kind_conflict_raises(self):
        m = Metrics()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_snapshot_roundtrip(self):
        m = Metrics()
        m.counter("db.statements").inc(12)
        m.gauge("depth").set(-2)
        restored = Metrics.from_snapshot(m.snapshot())
        assert restored.names() == m.names()
        assert restored.get("db.statements").value == 12
        assert restored.get("depth").value == -2

    def test_snapshot_is_json_safe(self):
        import json
        m = Metrics()
        m.counter("c").inc()
        json.dumps(m.snapshot())  # must not raise


class TestThreadSafety:
    N_THREADS = 8
    N_OPS = 500

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            for _ in range(self.N_OPS):
                fn()

        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_concurrent_increments(self):
        c = Counter("n")
        self._hammer(c.inc)
        assert c.value == self.N_THREADS * self.N_OPS

    def test_registry_concurrent_first_use(self):
        m = Metrics()
        instruments = []
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            instruments.append(m.counter("shared"))

        threads = [threading.Thread(target=work)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(i) for i in instruments}) == 1
