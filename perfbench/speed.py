"""Host speed reference for the end-to-end timings.

The reference machine is a 2-vCPU VM whose CPU speed drifts with its
neighbours: a fixed loop reads up to 1.5x slower from one second or minute
to the next, in CPU time as in wall time.  Ten 10 s runs of the same work
then spread by 20-35% of their median, more than the bounds allow.  So every
block of ops is bracketed by short runs of a fixed reference job that does
not use triloc, and its latencies are scaled by
REF_S / (median reference time around it): they read as if the reference job
took exactly REF_S.  A change to triloc cannot move the reference job; the
run record keeps the raw values next to the scaled ones.  Set-up times are
not scaled (see run.py).
"""

import gc
import statistics
import time

import numpy as np

REF_S = 1e-3  # the reference job's time at the reference speed
REPEATS = 3   # reference runs per sample() call

_T = (np.linspace(0.1, 0.8, 8) + 0.3j).reshape(2, 2, 2)


def reference_job(n=25):
    """The calls a decomposition makes on one state: a reduced density
    matrix by einsum, eigh and svd of 2x2 blocks, a phase, a little Python."""
    acc = 0.0
    for _ in range(n):
        rho = np.einsum("abc,abd->cd", _T, _T.conj())
        w, v = np.linalg.eigh(rho)
        s = np.linalg.svd(_T.reshape(2, 4) @ _T.reshape(4, 2), compute_uv=False)
        phase = np.exp(1j * np.angle(v[0, 0]))
        acc += float(w[0] * s[0]) + abs(phase) + sum(x * 0.5 for x in range(8))
    return acc


def sample():
    """REPEATS timings of the reference job, in seconds.  The collector is
    paused so objects the program keeps alive cannot slow the job."""
    out = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_job()
            out.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return out


def scale(samples):
    """Factor that turns a raw time into a time at the reference speed."""
    return REF_S / statistics.median(samples)
