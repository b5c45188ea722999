"""Independent reference for one time step of moldyn, nbf and irreg.

Written from the kernel shape of the paper's Figure 1 — a node sweep, an
interaction loop over ``left``/``right`` that reduces into both endpoints,
a second node sweep — with the constants of this reproduction's statement
bodies.  It imports nothing from ``repro``: executor outputs are compared
against it (after pulling back through sigma^-1), so an error shared by the
library, NumPy and C executors still shows.

``step_scalar`` is the definition, one Python loop iteration per loop
iteration of the figure.  ``step`` is the same arithmetic with the
reductions done by ``np.bincount`` so the scale-2 datasets check in
milliseconds; ``test_harness.py`` holds the two equal on a small graph.
Reductions are summed in a different order than ``np.add.at`` or the C
loops use, hence ``allclose`` (rtol 1e-9), never bit equality.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

Arrays = Dict[str, np.ndarray]


def step_scalar(kernel: str, arrays: Arrays, left, right) -> None:
    """One time step, in place, as plain loops."""
    n = len(next(iter(arrays.values())))
    if kernel == "moldyn":
        x, vx, fx = arrays["x"], arrays["vx"], arrays["fx"]
        for i in range(n):
            x[i] = x[i] + 0.01 * vx[i] + 0.0005 * fx[i]
        for j in range(len(left)):
            g = x[left[j]] - x[right[j]]
            fx[left[j]] = fx[left[j]] + g
            fx[right[j]] = fx[right[j]] - g
        for k in range(n):
            vx[k] = vx[k] + 0.5 * fx[k]
    elif kernel == "nbf":
        x, f = arrays["x"], arrays["f"]
        for j in range(len(left)):
            q = 0.25 * x[left[j]] * x[right[j]]
            f[left[j]] = f[left[j]] + q
            f[right[j]] = f[right[j]] - q
        for k in range(n):
            x[k] = x[k] + 0.1 * f[k]
    elif kernel == "irreg":
        x, y = arrays["x"], arrays["y"]
        for j in range(len(left)):
            w = 0.5 * (x[left[j]] + x[right[j]])
            y[left[j]] = y[left[j]] + w
            y[right[j]] = y[right[j]] + w
        for k in range(n):
            x[k] = x[k] + 0.01 * y[k]
    else:
        raise ValueError(f"no reference for kernel {kernel!r}")


def _scatter(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(index, weights=values, minlength=n)


def step(kernel: str, arrays: Arrays, left, right) -> None:
    """One time step, in place, with the reductions as bincounts."""
    n = len(next(iter(arrays.values())))
    if kernel == "moldyn":
        x, vx, fx = arrays["x"], arrays["vx"], arrays["fx"]
        x += 0.01 * vx + 0.0005 * fx
        g = x[left] - x[right]
        fx += _scatter(g, left, n) - _scatter(g, right, n)
        vx += 0.5 * fx
    elif kernel == "nbf":
        x, f = arrays["x"], arrays["f"]
        q = 0.25 * x[left] * x[right]
        f += _scatter(q, left, n) - _scatter(q, right, n)
        x += 0.1 * f
    elif kernel == "irreg":
        x, y = arrays["x"], arrays["y"]
        w = 0.5 * (x[left] + x[right])
        y += _scatter(w, left, n) + _scatter(w, right, n)
        x += 0.01 * y
    else:
        raise ValueError(f"no reference for kernel {kernel!r}")


def run(kernel: str, arrays: Arrays, left, right, num_steps: int) -> Arrays:
    """``num_steps`` reference steps on a copy of ``arrays``."""
    out = {name: np.array(values, dtype=np.float64) for name, values in arrays.items()}
    for _ in range(num_steps):
        step(kernel, out, left, right)
    return out


def matches(expected: Arrays, actual: Arrays, rtol: float = 1e-9) -> bool:
    return all(
        np.allclose(actual[name], expected[name], rtol=rtol, atol=1e-12)
        for name in expected
    )
