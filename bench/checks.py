"""Independent correctness checks on the program's results.

They use numpy and the closed forms in inputs.py, never the library's own
solvers, and raise stats.WrongResult on a mismatch.
"""

from __future__ import annotations

import numpy as np

import inputs
from stats import WrongResult

TOL = 1e-8


def require(cond: bool, message: str):
    if not cond:
        raise WrongResult(message)


def r0_matches(model: dict, R0: float):
    ref = inputs.r0(model)
    require(abs(R0 - ref) <= TOL * max(1.0, ref), f"R0 {R0!r} but numpy gives {ref!r}")


def endemic_point(model: dict, S_bar, I_bar):
    """Positivity, field residual and rho(K~(S_bar)) = 1."""
    x = np.concatenate([np.ravel(S_bar), np.ravel(I_bar)]).astype(float)
    require(bool(np.all(x > 0.0)), f"endemic point has a non-positive entry: {x}")
    res = float(np.max(np.abs(inputs.field(model, x))))
    require(res <= TOL * (1.0 + float(np.max(np.abs(x)))),
            f"endemic residual {res:.3e} above {TOL:g}")
    rho = inputs.loop_radius(model, x[:model["m"]])
    require(abs(rho - 1.0) <= TOL, f"loop NGM radius {rho!r} at S_bar, not 1")


def minimal_siphons(src: np.ndarray, out: np.ndarray) -> list[frozenset[int]]:
    """Inclusion-minimal siphons by a filter over every subset of species.

    A set is a siphon when each reaction that net-produces a member has a
    member among its sources. Minimal ones are taken in order of size,
    dropping supersets of those already taken.
    """
    n = src.shape[0]
    masks = np.arange(1, 1 << n, dtype=np.int64)
    ok = np.ones(masks.size, dtype=bool)
    weights = 1 << np.arange(n, dtype=np.int64)
    for r in range(src.shape[1]):
        produced = int(weights[(out[:, r] - src[:, r]) > 0].sum())
        consumed = int(weights[src[:, r] > 0].sum())
        ok &= ((masks & produced) == 0) | ((masks & consumed) != 0)
    siphons = masks[ok]
    found = []
    while siphons.size:
        smallest = int(siphons[np.argmin(np.bitwise_count(siphons))])
        found.append(frozenset(i for i in range(n) if smallest >> i & 1))
        siphons = siphons[(siphons & smallest) != smallest]
    return found


def csv_rows(path, header: str, prefix: bool = False) -> list[list[str]]:
    """Rows of a CSV file after checking its header line (or its start)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = lines[0] if lines else ""
    require(first.startswith(header) if prefix else first == header,
            f"{path.name}: header {first!r} is not {header!r}")
    return [line.split(",") for line in lines[1:]]
