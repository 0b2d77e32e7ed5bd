"""Seeded input generators for the benchmark workloads.

Everything here uses numpy only, never the library under test, so the
program receives nothing but the generated matrices and reaction texts.
The builders mirror the test-suite builders (random_model, with_r0,
diagonal_As, feedback_C, backward_model, random_network): same families,
same parameter ranges. Reproduction numbers and decay rates are computed
independently with dense eigenvalue solves.

Models are plain dicts of float arrays with the bundle keys of the README
(m, n, A, A_S, B, P, Lambda, C); model_json() gives their file form.
"""

from __future__ import annotations

import json

import numpy as np

# ---------------------------------------------------------------- models


def metzler_hurwitz(rng: np.random.Generator, k: int) -> np.ndarray:
    """Metzler matrix made Hurwitz by strict diagonal dominance."""
    M = rng.uniform(0.0, 1.0, size=(k, k))
    np.fill_diagonal(M, 0.0)
    margin = rng.uniform(0.3, 1.2, size=k)
    M[np.diag_indices(k)] = -(M.sum(axis=1) + margin)
    return M


def stochastic_columns(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    P = rng.uniform(0.2, 1.0, size=(n, m))
    return P / P.sum(axis=0, keepdims=True)


def make_model(A, A_S, B, P, Lambda, C=None) -> dict:
    A_S = np.atleast_2d(np.asarray(A_S, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A_S.shape[0], A.shape[0]
    return {"m": m, "n": n, "A": A, "A_S": A_S,
            "B": np.asarray(B, dtype=float).reshape(m, n),
            "P": np.asarray(P, dtype=float).reshape(n, m),
            "Lambda": np.asarray(Lambda, dtype=float).reshape(m),
            "C": np.zeros((m, n)) if C is None
            else np.asarray(C, dtype=float).reshape(m, n)}


def random_model(rng: np.random.Generator, m: int, n: int,
                 case: str = "general") -> dict:
    """Random valid model; `case` is 'casep', 'caseb' or 'general'."""
    A = metzler_hurwitz(rng, n)
    A_S = metzler_hurwitz(rng, m)
    Lam = rng.uniform(0.5, 2.0, size=m)
    if case == "casep":
        alpha = stochastic_columns(rng, n, 1).ravel()
        P = np.tile(alpha[:, None], (1, m))
        B = rng.uniform(0.2, 2.0, size=(m, n))
    elif case == "caseb":
        P = stochastic_columns(rng, n, m)
        alpha_m = stochastic_columns(rng, m, 1).ravel()
        B = np.outer(alpha_m, rng.uniform(0.2, 2.0, size=n))
    elif case == "general":
        P = stochastic_columns(rng, n, m)
        B = rng.uniform(0.2, 2.0, size=(m, n))
    else:
        raise ValueError(f"unknown case {case!r}")
    return make_model(A, A_S, B, P, Lam)


def dfe_profile(model: dict) -> np.ndarray:
    return np.linalg.solve(-model["A_S"], model["Lambda"])


def loop_gain(model: dict) -> np.ndarray:
    """B (-A)^{-1} P, the m x m circulation matrix."""
    return model["B"] @ np.linalg.solve(-model["A"], model["P"])


def loop_radius(model: dict, S: np.ndarray) -> float:
    """Spectral radius of the loop next-generation form G Diag(S)."""
    K = loop_gain(model) * np.asarray(S, dtype=float)[None, :]
    return float(np.max(np.abs(np.linalg.eigvals(K))))


def r0(model: dict) -> float:
    return loop_radius(model, dfe_profile(model))


def with_r0(model: dict, target: float) -> dict:
    """Rescale B (R0 is linear in B) so the model has the requested R0."""
    out = dict(model)
    out["B"] = model["B"] * (target / r0(model))
    return out


def diagonal_As(model: dict, rng: np.random.Generator) -> dict:
    """Replace A_S by a random negative diagonal (Lyapunov hypotheses)."""
    out = dict(model)
    out["A_S"] = np.diag(-rng.uniform(0.5, 1.5, size=model["m"]))
    return out


def feedback_C(model: dict, rng: np.random.Generator,
               strength: float = 0.8) -> np.ndarray:
    """Recovery feedback recycling `strength` of each compartment's exit mass."""
    exits = -model["A"].sum(axis=0)
    C = rng.uniform(0.1, 1.0, size=(model["m"], model["n"]))
    return C * (strength * exits / C.sum(axis=0))[None, :]


def feedback_model(rng: np.random.Generator, m: int, n: int, target: float) -> dict:
    """Shared-routing model with R0 = target and recovery feedback C >= 0.

    A is drawn column-dominant (the transpose of metzler_hurwitz), so every
    infection compartment has a positive exit rate for C to recycle.
    """
    model = random_model(rng, m, n, "casep")
    model["A"] = model["A"].T
    model = with_r0(model, target)
    model["C"] = feedback_C(model, rng)
    return model


BACKWARD_B = np.array([0.05, 5.0])
BACKWARD_LAMBDA = np.array([16.0, 0.02])
BACKWARD_MU = np.array([1.0, 1.0])


def backward_model(c2: float) -> dict:
    """m = 2 shared-routing model with R0 = 0.9 and recycling c2 in class 2.

    Its amplitude law is H(k) = sum_i b_i (lambda_i + k c_i) / (k b_i + mu_i),
    which has two roots below threshold once c2 is large enough.
    """
    return make_model(A=[[-1.0]], A_S=np.diag(-BACKWARD_MU),
                      B=BACKWARD_B[:, None], P=[[1.0, 1.0]],
                      Lambda=BACKWARD_LAMBDA, C=[[0.0], [c2]])


# The amplitude grid of the dense sign scan.
SIGN_SCAN_K = np.geomspace(1e-8, 1e6, 100_001)


def backward_root_count(c2: float) -> int:
    """Roots of the backward family's closed-form law, by dense sign scan."""
    c = np.array([0.0, c2])
    H = ((BACKWARD_B * (BACKWARD_LAMBDA[None, :] + np.outer(SIGN_SCAN_K, c)))
         / (np.outer(SIGN_SCAN_K, BACKWARD_B) + BACKWARD_MU)).sum(axis=1)
    signs = np.sign(H - 1.0)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def field(model: dict, x: np.ndarray) -> np.ndarray:
    """The bilinear vector field, written out from the README equations."""
    m = model["m"]
    S, I = x[:m], x[m:]
    BI = model["B"] @ I
    dS = model["Lambda"] + model["A_S"] @ S - S * BI + model["C"] @ I
    dI = model["P"] @ (S * BI) + model["A"] @ I
    return np.concatenate([dS, dI])


def field_jacobian(model: dict, x: np.ndarray) -> np.ndarray:
    m = model["m"]
    S, I = x[:m], x[m:]
    BI = model["B"] @ I
    top = np.hstack([model["A_S"] - np.diag(BI), -(S[:, None] * model["B"]) + model["C"]])
    bot = np.hstack([model["P"] * BI[None, :], model["P"] @ (S[:, None] * model["B"])
                     + model["A"]])
    return np.vstack([top, bot])


def single_class_endemic(model: dict) -> np.ndarray:
    """Endemic point of an m = 1, C = 0 model in closed form: S = 1 / R."""
    w = np.linalg.solve(-model["A"], model["P"][:, 0])
    S = 1.0 / float(model["B"][0] @ w)
    BI = (model["Lambda"][0] + model["A_S"][0, 0] * S) / S
    return np.concatenate([[S], S * BI * w])


def decay_rate(model: dict, kind: str) -> float:
    """Slowest linear decay rate at the certificate's attractor.

    The number of RK4 steps before a batch settles scales as its inverse,
    so it is the input property that sets a Lyapunov audit's cost.
    """
    if kind == "dfe":
        x = np.concatenate([dfe_profile(model), np.zeros(model["n"])])
    else:
        x = single_class_endemic(model)
    return -float(np.max(np.linalg.eigvals(field_jacobian(model, x)).real))


RANK_TOL = 1e-8


def rank_class(model: dict) -> str:
    """Transmission structure: CaseP (shared routing), CaseB (rank-one B), Both or General."""
    P, B = model["P"], model["B"]
    shared = bool(np.max(np.abs(P - P[:, :1])) <= RANK_TOL)
    s = np.linalg.svd(B, compute_uv=False)
    rank_one = s.size == 1 or bool(s[1] <= RANK_TOL * s[0])
    return {(True, True): "Both", (True, False): "CaseP",
            (False, True): "CaseB", (False, False): "General"}[(shared, rank_one)]


def model_json(model: dict) -> str:
    doc = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
           for k, v in model.items()}
    return json.dumps(doc, sort_keys=True)


# ------------------------------------------------------- reaction networks

SIRS_RXN = """\
# susceptible-infected-recovered with waning immunity
s + i -> 2 i : 2.0
i -> r : 1.0
r -> s : 1.0
"""


def sirs_demography(beta: float) -> tuple[str, dict]:
    """SIRS with births and deaths; returns the text and its bilinear form.

    Species order (s, i, r) splits into S = (s, r) and I = (i), so the
    model is m = 2, n = 1 with R0 = beta / 2.5.
    """
    text = ("species: s i r\n-> s : 1.0\ns -> : 1.0\ni -> : 1.0\n"
            f"r -> : 1.0\ns + i -> 2 i : {beta!r}\ni -> r : 1.5\nr -> s : 0.5\n")
    model = make_model(A=[[-2.5]], A_S=[[-1.0, 0.5], [0.0, -1.5]],
                       B=[[beta], [0.0]], P=[[1.0, 1.0]], Lambda=[1.0, 0.0],
                       C=[[0.0], [1.5]])
    return text, model


def staged_network(k: int, rng: np.random.Generator) -> str:
    """Susceptible s, infection stages i1..ik, recovered r: k + 2 species.

    Every stage infects into stage 1, so the only minimal siphon is the
    full stage block and exact enumeration walks all smaller subsets.
    """
    stages = [f"i{j}" for j in range(1, k + 1)]
    inflow = float(rng.uniform(8.0, 12.0))
    lines = [f"species: s {' '.join(stages)} r", f"-> s : {inflow!r}",
             f"s -> : {inflow!r}", "r -> s : 1.0", f"r -> : {inflow!r}"]
    for j, name in enumerate(stages, start=1):
        rate = float(rng.uniform(1.0, 3.0)) / k
        product = "2 i1" if j == 1 else f"i1 + {name}"
        lines.append(f"s + {name} -> {product} : {rate!r}")
        nxt = stages[j] if j < k else "r"
        lines.append(f"{name} -> {nxt} : {float(k)!r}")
        lines.append(f"{name} -> : 0.1")
    return "\n".join(lines) + "\n"


def random_network(rng: np.random.Generator, n_species: int,
                   n_reactions: int) -> str:
    """Random sparse network, drawn exactly as the test-suite builder does."""
    names = [f"x{i}" for i in range(n_species)]
    lines = ["species: " + " ".join(names)]

    def side(v):
        return " + ".join((f"{int(c)} " if c > 1 else "") + names[i]
                          for i, c in enumerate(v) if c > 0)

    for _ in range(n_reactions):
        src = np.zeros(n_species)
        out = np.zeros(n_species)
        for i in rng.choice(n_species, size=int(rng.integers(0, 3)), replace=False):
            src[i] = float(rng.integers(1, 3))
        for i in rng.choice(n_species, size=int(rng.integers(0, 3)), replace=False):
            out[i] = float(rng.integers(1, 3))
        if not src.any() and not out.any():
            out[int(rng.integers(n_species))] = 1.0
        rate = float(rng.uniform(0.5, 2.0))
        lines.append(f"{side(src)} -> {side(out)} : {rate!r}")
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """(species, source, output, rates) of a reaction text, for the oracles.

    Handles only what the generators above emit: a leading species
    directive, `+`-joined terms with optional integer counts, `: rate`.
    """
    species: list[str] = []
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            species = line[len("species:"):].split()
            continue
        lhs, _, rest = line.partition("->")
        rhs, _, rate = rest.partition(":")
        sides = []
        for part in (lhs, rhs):
            terms = []
            for term in filter(None, (t.strip() for t in part.split("+"))):
                bits = term.split()
                count, name = (int(bits[0]), bits[1]) if len(bits) == 2 else (1, bits[0])
                if name not in species:
                    species.append(name)
                terms.append((count, name))
            sides.append(terms)
        rows.append((sides[0], sides[1], float(rate)))
    src = np.zeros((len(species), len(rows)))
    out = np.zeros((len(species), len(rows)))
    for r, (left, right, _) in enumerate(rows):
        for count, name in left:
            src[species.index(name), r] += count
        for count, name in right:
            out[species.index(name), r] += count
    return species, src, out, np.array([row[2] for row in rows])
