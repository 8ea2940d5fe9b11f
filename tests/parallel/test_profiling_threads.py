"""Thread-safety stress test: concurrent ElementTiming recording.

The parallel executor's worker pool records element timings into one
shared QueryProfile; a barrier-released thread pool hammers it to
prove no record is lost or torn."""

import threading

import pytest

from repro.obs import QueryProfile

pytestmark = pytest.mark.obs

N_THREADS = 8
N_RECORDS = 400


def test_concurrent_record_loses_nothing():
    profile = QueryProfile(query_name="stress")
    barrier = threading.Barrier(N_THREADS)

    def worker(tid: int) -> None:
        barrier.wait()  # maximise interleaving
        for i in range(N_RECORDS):
            profile.record(f"e{tid}_{i}", "operator", 0.001,
                           rows=tid, cols=i)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(profile.timings) == N_THREADS * N_RECORDS
    names = {t.name for t in profile.timings}
    assert len(names) == N_THREADS * N_RECORDS  # no torn/dup records
    # every thread's full sequence arrived intact
    for tid in range(N_THREADS):
        mine = [t for t in profile.timings if t.rows == tid]
        assert sorted(t.cols for t in mine) == list(range(N_RECORDS))
    assert profile.total_seconds == pytest.approx(
        N_THREADS * N_RECORDS * 0.001)


def test_concurrent_record_with_readers():
    """Aggregations running while writers append must not crash."""
    profile = QueryProfile(query_name="mixed")
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            try:
                profile.total_seconds
                profile.seconds_by_kind()
                profile.source_fraction()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return

    def writer():
        for i in range(N_RECORDS):
            profile.record(f"s{i}", "source", 0.001, rows=1)
            profile.record(f"o{i}", "operator", 0.003, rows=1)

    readers = [threading.Thread(target=reader) for _ in range(2)]
    writers = [threading.Thread(target=writer) for _ in range(4)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()

    assert not errors
    assert len(profile.timings) == 4 * 2 * N_RECORDS
    assert profile.source_fraction() == pytest.approx(0.25)
