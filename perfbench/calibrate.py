"""A fixed reference job that measures how fast the host runs right now.

It uses no collapselab code, only the kinds of work the workloads spend their
time in, at fixed sizes: a SuperLU solve of a 2-D periodic Laplacian, a
shift-invert ``eigsh`` on a 3-D periodic Laplacian, multi-source Dijkstra on a
grid graph, and small NumPy calls from a Python loop, whose length each
workload sets to weigh the two kinds of work as it does.  ``run.py`` runs
chunks alongside each sample on the same CPU (``Calibrator``) and reports the
sample's time as the chunks done meanwhile times their nominal seconds: on a
shared host the speed of a vCPU changes by tens of percent within seconds and
between minutes, and the time so scaled does not move with it.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

# The unit of the scaled times: seconds on a host where the solves of one
# chunk take SOLVES_REF_S and each iteration of its Python loop LOOP_REF_S
# (roughly the 2-vCPU host the benchmark was built on, at its faster times).
SOLVES_REF_S = 0.1
LOOP_REF_S = 4e-6
# Niceness of the calibration thread: against a sample at niceness 0 it gets
# about a quarter of the CPU.  The sample's share over the calibration's is the
# ratio of the Linux scheduler weights of niceness 0 and 5.
CALIBRATION_NICE = 5
SAMPLE_SHARE_RATIO = 1024 / 335


def periodic_laplacian(shape: tuple[int, ...]) -> sp.csc_matrix:
    """Graph Laplacian of a periodic grid plus the identity, so that it is positive definite."""
    n = int(np.prod(shape))
    idx = np.arange(n).reshape(shape)
    rows = np.concatenate([idx.ravel()] * len(shape))
    cols = np.concatenate([np.roll(idx, -1, axis=ax).ravel() for ax in range(len(shape))])
    A = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    A = (A + A.T).tocsr()
    degree = np.asarray(A.sum(axis=1)).ravel()
    return (sp.diags(degree + 1.0) - A).tocsc()


L2 = periodic_laplacian((128, 64))
L3 = periodic_laplacian((10, 10, 10))
EDGES = -(L2 - sp.diags(L2.diagonal()))
FIELD = np.random.default_rng(0).random((64, 64))


def chunk(loops: int) -> bool:
    """One fixed slice of work with ``loops`` Python iterations; True if its results are the known ones."""
    x = scipy.sparse.linalg.spsolve(L2, np.ones(L2.shape[0]))
    ok = bool(np.allclose(x, 1.0))
    theta = scipy.sparse.linalg.eigsh(L3, k=4, sigma=0.0, which="LM", v0=np.ones(L3.shape[0]),
                                      return_eigenvectors=False)
    ok &= bool(abs(np.min(theta) - 1.0) < 1e-8)
    # sources every 8th row of column 0: the farthest node is 4 rows and 32 columns away
    d = scipy.sparse.csgraph.dijkstra(EDGES, directed=False, indices=np.arange(0, 8192, 512), min_only=True)
    ok &= bool(d.max() == 36.0)
    acc = 0.0
    for i in range(loops):
        p = np.array([i % 64 + 0.5, (7 * i) % 64 + 0.25])
        base = np.floor(p).astype(int)
        frac = p - base
        acc += (1 - frac[0]) * FIELD[base[0], base[1]] + frac[0] * FIELD[(base[0] + 1) % 64, base[1]]
    return ok and 0.0 <= acc <= loops


class Calibrator:
    """Chunks run back to back in a background thread, with the time each one ended.

    ``run.py`` pins itself, and so this thread and every sample it starts, to
    one CPU.  While a sample runs, the scheduler shares that CPU between the
    sample and the calibration in a fixed proportion, in slices of a few
    milliseconds, so both see the same changes of speed, and the chunks done
    meanwhile measure the sample's time at a fixed speed (``reference_s``).
    """

    def __init__(self, loops: int) -> None:
        self.loops = loops
        if not chunk(loops):  # warm-up, untimed: the first call loads code and fills caches
            raise ValueError("calibration chunk gave a wrong result")
        self.ends = [time.perf_counter()]
        self.error: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="calibration", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        os.setpriority(os.PRIO_PROCESS, 0, CALIBRATION_NICE)  # on Linux, this thread only
        while not self._stop.is_set():
            if not chunk(self.loops):
                self.error = "calibration chunk gave a wrong result"
                return
            self.ends.append(time.perf_counter())

    def chunks_between(self, start: float, end: float) -> float:
        """Chunks done between two ``time.perf_counter()`` readings, counting a partial chunk by its share of time."""
        while self.ends[-1] < end and self.error is None:
            time.sleep(0.01)
        if self.error is not None:
            raise ValueError(self.error)
        done = 0.0
        for a, b in zip(self.ends[:-1], self.ends[1:]):
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                done += overlap / (b - a)
        return done

    def reference_s(self, start: float, end: float) -> float:
        """Seconds a sample that ran from ``start`` to ``end`` would take alone at the reference speed."""
        nominal_s = SOLVES_REF_S + self.loops * LOOP_REF_S
        return self.chunks_between(start, end) * nominal_s * SAMPLE_SHARE_RATIO

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
