"""Host speed reference: fixed kernels that share no code with hamfactor.

On a shared host the same CLI call can run up to twice as slow while
co-tenants are busy, in phases that last tens of seconds, so medians of
raw wall time wander between runs by more than any bound worth setting.
Timing fixed kernels next to the calls measures how slow the host is at
that moment, and dividing a call's time by that slowness reports it at the
reference host's speed.

Contention does not slow all kinds of work alike.  On the reference host,
repeated solve1d calls tracked the dense kernel and not the interpreter
kernel, and verify and table calls the reverse.  So there are three
kernels, one per kind of work the CLI does, and each workload weighs them
by its own mix (``workloads.HOST_MIX``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_TERMS = {(i, j, k): complex(i + 1, j - k) for i in range(4) for j in range(3) for k in range(3)}
_VECTOR = np.linspace(-1.0, 1.0, 64) + 0.5j
_MATRIX = np.eye(300) + np.full((300, 300), 1.0 / 300)


def _interpreter() -> bool:
    """Sparse dict-of-tuples products, as in polynomial arithmetic and table loops."""
    product: dict[tuple[int, ...], complex] = {}
    for ea, ca in _TERMS.items():
        for eb, cb in _TERMS.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            product[key] = product.get(key, 0j) + ca * cb
    return len(product) > 0


def _small_arrays() -> bool:
    """Many NumPy calls on tiny arrays, as in spin embedding and 2-32 sized LU."""
    v = _VECTOR.copy()
    for k in range(120):
        p = k % 32 + int(np.argmax(np.abs(v[k % 32 :])))
        v[[k % 32, p]] = v[[p, k % 32]]
        v[1:] -= np.outer(v[:1], v[1:]).ravel() * 1e-3
    return bool(np.isfinite(v).all())


def _dense() -> bool:
    """A matrix product and a symmetric eigensolve, as in elimination and eigh."""
    m = _MATRIX @ _MATRIX
    return bool(np.isfinite(np.linalg.eigvalsh(m)).all())


KERNELS = {"interpreter": _interpreter, "small_arrays": _small_arrays, "dense": _dense}

#: Seconds per kernel on an idle core of the reference host (Intel Xeon,
#: 2 vCPUs, one BLAS thread).  They fix the scale of the reported times.
NOMINAL_S = {"interpreter": 0.00106, "small_arrays": 0.00090, "dense": 0.0041}


def slowness(mix: dict[str, float]) -> float:
    """Weighted kernel time over its nominal: 1.0 at the reference speed, 2.0 twice as slow."""
    spent = nominal = 0.0
    for name, weight in mix.items():
        start = perf_counter()
        if not KERNELS[name]():
            raise ArithmeticError(f"host-speed kernel {name} produced non-finite values")
        spent += weight * (perf_counter() - start)
        nominal += weight * NOMINAL_S[name]
    return spent / nominal
