"""Host-speed normalisation for the end-to-end benchmark.

The benchmark runs on shared virtual machines whose speed drifts: the
same work takes 1.3 to 2 times as long from one minute to the next,
because other tenants contend for the cores and their caches.  Longer
runs do not average this away.  So next to each timed operation the
benchmark times a fixed reference task, a mix of what the program does
(interpreter arithmetic, building and sorting small dicts, and a SQLite
aggregate), and reports each latency at the reference speed: the wall
time multiplied by ``REFERENCE_S`` over the reference task's current
time.  On one host over five minutes this cut the spread of the import
and query medians of ``campaign_sqlite`` from 0.40 and 0.25 to 0.05 and
0.03 (see README.md).

The reference task is timed in thread CPU time, so waiting for the
interpreter lock, which another client thread may hold, does not count.
"""

from __future__ import annotations

import contextlib
import random
import sqlite3
import statistics
import time
from collections import deque

#: the reference task's thread CPU time at the reference speed, which is
#: about that of a 2-vCPU x86 virtual machine with CPython 3.11 and
#: SQLite 3.40
REFERENCE_S = 1.0e-3
#: samples the current speed is the median of
WINDOW = 11

_ROWS = 1500


class HostSpeed:
    """The host's current speed, from the reference task timed next to the
    work.  :meth:`scale` uses the median of the last ``window`` samples, so
    one slow sample moves it little.  Each thread needs its own."""

    def __init__(self, window: int = WINDOW):
        self.recent: deque[float] = deque(maxlen=window)
        rng = random.Random(0)
        # only the thread that samples uses the connection, but it may
        # be created in another
        self._db = sqlite3.connect(":memory:", check_same_thread=False)
        self._db.execute("CREATE TABLE t (a REAL, b INTEGER, c TEXT)")
        self._db.executemany("INSERT INTO t VALUES (?, ?, ?)",
                             [(rng.random(), i % 13, str(i))
                              for i in range(_ROWS)])

    def _task(self) -> None:
        s = 0
        for i in range(2500):
            s += i * i % 7
        rows = [{"run": i, "name": f"v{i % 17}", "value": i * 0.5}
                for i in range(400)]
        rows.sort(key=lambda r: (r["name"], -r["value"]))
        ",".join(r["name"] for r in rows)
        self._db.execute("SELECT b, avg(a), count(*) FROM t "
                         "GROUP BY b").fetchall()

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.thread_time()
            self._task()
            self.recent.append(time.thread_time() - start)

    def scale(self) -> float:
        """Factor from a wall time measured now to reference time."""
        return REFERENCE_S / statistics.median(self.recent)


class SetupClock:
    """Set-up time, wall and at the reference speed, with pauses.

    The time runs in segments between :meth:`start` and :meth:`stop`;
    the host speed is sampled at both ends of each segment.  Writing the
    input files runs :meth:`paused`: it is the benchmark's own work, no
    change to the program can move it, and file creation on a shared
    disk varied by a factor of six from run to run.
    """

    def __init__(self):
        self.speed = HostSpeed(2 * WINDOW)
        self.wall_s = 0.0
        self.s = 0.0

    def start(self) -> None:
        self.speed.recent.clear()
        self.speed.sample(WINDOW)
        self._start = time.perf_counter()

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._start
        self.speed.sample(WINDOW)
        self.wall_s += elapsed
        self.s += elapsed * self.speed.scale()

    @contextlib.contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()
