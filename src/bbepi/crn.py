"""Reaction networks: parsing, mass-action dynamics, siphons, face structure.

A network is a list of reactions `source -> output : rate_constant` over
named species. Mass-action rates are monomials in the source multiplicities,
so every reaction that net-consumes a species has that species in its source
and the nonnegative orthant is forward invariant.

A siphon is a species set such that every reaction producing a member also
consumes a member; zeroing a siphon freezes every inflow into it, so the
corresponding coordinate face is forward invariant, and Jacobians at
equilibria on the face inherit a block-triangular structure. Siphons whose
members do not jointly support a nonnegative conservation law ("critical"
siphons) are the candidate extinction faces.

network_to_bilinear recognizes networks whose mass-action dynamics reduce to
the balanced bilinear susceptible/infection form and extracts the matrix
bundle exactly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import (NegativeRate, NotBalancedBilinear, NotEquilibrium,
                     NotInvariantFace, ParseError, TooManySpecies,
                     UnknownSpecies)
from .model import BilinearModel

MAX_SPECIES_EXACT = 24
FACE_EQ_TOL = 1e-9
FACE_SAMPLE_TOL = 1e-9
OFF_BLOCK_TOL = 1e-7
FD_STEP = 1e-6
ROUNDTRIP_TOL = 1e-9
COLSUM_TOL = 1e-9

_TERM_RE = re.compile(r"^\s*(\d+)?\s*([A-Za-z_]\w*)\s*$")


@dataclass(frozen=True)
class Reaction:
    """One reaction with integer source/output multiplicity vectors."""

    source: np.ndarray
    output: np.ndarray
    rate_constant: float

    def __post_init__(self):
        for name in ("source", "output"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ReactionNetwork:
    """Species-indexed reaction list with its stoichiometric matrix."""

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    @property
    def source_matrix(self) -> np.ndarray:
        return np.array([r.source for r in self.reactions]).T if self.reactions \
            else np.zeros((self.n_species, 0))

    @property
    def output_matrix(self) -> np.ndarray:
        return np.array([r.output for r in self.reactions]).T if self.reactions \
            else np.zeros((self.n_species, 0))

    @property
    def Gamma(self) -> np.ndarray:
        """Stoichiometric matrix, one column per reaction (output - source)."""
        return self.output_matrix - self.source_matrix

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Mass-action rates at state(s) x, shape (..., n_species)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.n_reactions,))
        for r_idx, rxn in enumerate(self.reactions):
            rate = np.full(x.shape[:-1], rxn.rate_constant)
            for i in np.flatnonzero(rxn.source):
                rate = rate * x[..., i] ** rxn.source[i]
            out[..., r_idx] = rate
        return out

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """Mass-action vector field Gamma @ rates(x), batch friendly."""
        return self.rates(x) @ self.Gamma.T

    def index(self, name: str) -> int:
        if name not in self.species:
            raise UnknownSpecies(f"species {name!r} not in the network")
        return self.species.index(name)


def _parse_side(side: str, line_no: int) -> list[tuple[int, str]]:
    side = side.strip()
    if not side:
        return []
    terms = []
    for raw in side.split("+"):
        m = _TERM_RE.match(raw)
        if not m:
            raise ParseError(f"cannot parse term {raw.strip()!r}", line=line_no)
        count = int(m.group(1)) if m.group(1) else 1
        if count <= 0:
            raise ParseError(f"multiplicity must be positive in {raw.strip()!r}",
                             line=line_no)
        terms.append((count, m.group(2)))
    return terms


def parse_reactions(text: str) -> ReactionNetwork:
    """Parse a reaction file into a network.

    Grammar, one reaction per line:

        [count] name (+ [count] name)* -> [terms] : rate

    `#` starts a comment; blank lines are skipped. An empty left side is a
    constant inflow, an empty right side pure outflow. An optional first
    directive `species: a b c` pins the species ordering and makes any other
    name an error; otherwise species are numbered by first appearance.
    Rates must be positive finite literals. Mass-action kinetics make the chemical
    condition (net consumption implies source membership) hold automatically.
    """
    declared: list[str] | None = None
    seen: dict[str, int] = {}
    rows: list[tuple[int, list[tuple[int, str]], list[tuple[int, str]], float]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            if rows or declared is not None:
                raise ParseError("species directive must come first", line=line_no)
            declared = line[len("species:"):].split()
            if not declared:
                raise ParseError("species directive lists no names", line=line_no)
            for idx, name in enumerate(declared):
                if not _TERM_RE.match(name) or name in seen:
                    raise ParseError(f"bad or duplicate species name {name!r}",
                                     line=line_no)
                seen[name] = idx
            continue
        if "->" not in line:
            raise ParseError("missing '->'", line=line_no)
        head, _, tail = line.partition("->")
        body, sep, rate_txt = tail.partition(":")
        if not sep:
            raise ParseError("missing ': rate'", line=line_no)
        try:
            rate = float(rate_txt.strip())
        except ValueError:
            raise ParseError(f"bad rate literal {rate_txt.strip()!r}", line=line_no)
        if not 0.0 < rate < np.inf:
            raise NegativeRate(f"rate must be positive and finite, got {rate!r}",
                               line=line_no)
        lhs = _parse_side(head, line_no)
        rhs = _parse_side(body, line_no)
        if not lhs and not rhs:
            raise ParseError("reaction with empty source and output", line=line_no)
        for _, name in lhs + rhs:
            if name not in seen:
                if declared is not None:
                    raise UnknownSpecies(f"species {name!r} not declared",
                                         line=line_no)
                seen[name] = len(seen)
        rows.append((line_no, lhs, rhs, rate))
    species = tuple(declared) if declared is not None else \
        tuple(sorted(seen, key=seen.get))
    n = len(species)
    reactions = []
    for _, lhs, rhs, rate in rows:
        src = np.zeros(n)
        out = np.zeros(n)
        for count, name in lhs:
            src[seen[name]] += count
        for count, name in rhs:
            out[seen[name]] += count
        reactions.append(Reaction(source=src, output=out, rate_constant=rate))
    return ReactionNetwork(species=species, reactions=tuple(reactions))


def load_reactions(path) -> ReactionNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_reactions(fh.read())


@dataclass(frozen=True)
class SiphonSet:
    """An inclusion-minimal siphon with its criticality flag."""

    indices: tuple[int, ...]
    species: tuple[str, ...]
    critical: bool

    def to_dict(self) -> dict:
        return {"species": list(self.species), "critical": self.critical}


def is_siphon(net: ReactionNetwork, members) -> bool:
    """Does every reaction net-producing a member consume some member?"""
    members = set(members)
    if not members:
        return True
    Gamma = net.Gamma
    src = net.source_matrix
    idx = sorted(members)
    for r in range(net.n_reactions):
        produces = np.any(Gamma[idx, r] > 0)
        consumes = np.any(src[idx, r] > 0)
        if produces and not consumes:
            return False
    return True


def _has_conservation_support(net: ReactionNetwork, members: tuple[int, ...]) -> bool:
    """Is there y >= 0, y != 0, supported inside `members`, with y Gamma = 0?"""
    Gamma = net.Gamma
    sub = Gamma[list(members), :]
    k = len(members)
    # Feasibility LP: y >= 0, y^T sub = 0, sum y = 1.
    A_eq = np.vstack([sub.T, np.ones((1, k))])
    b_eq = np.concatenate([np.zeros(sub.shape[1]), [1.0]])
    res = linprog(c=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * k, method="highs")
    return bool(res.status == 0)


def minimal_siphons(net: ReactionNetwork,
                    cap: int = MAX_SPECIES_EXACT) -> list[SiphonSet]:
    """All inclusion-minimal nonempty siphons, exactly.

    Subsets are enumerated in order of increasing size with domination
    pruning (supersets of an already-found siphon are skipped), which is
    exact and fast for the sparse minimal families typical of these
    networks. Refuses networks above `cap` species.

    Each returned siphon carries a criticality flag: critical means its
    members do not jointly support a nonnegative conservation law of the
    stoichiometry (checked by a small feasibility LP).
    """
    n = net.n_species
    if n > cap:
        raise TooManySpecies(f"exact enumeration capped at {cap} species, got {n}")
    Gamma = net.Gamma
    src = net.source_matrix
    prod_masks = []
    cons_masks = []
    for r in range(net.n_reactions):
        prod_masks.append(int(sum(1 << i for i in np.flatnonzero(Gamma[:, r] > 0))))
        cons_masks.append(int(sum(1 << i for i in np.flatnonzero(src[:, r] > 0))))

    found: list[int] = []
    out: list[SiphonSet] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            if any((mask & f) == f for f in found):
                continue
            if all((mask & p) == 0 or (mask & c) != 0
                   for p, c in zip(prod_masks, cons_masks)):
                found.append(mask)
                out.append(SiphonSet(
                    indices=combo,
                    species=tuple(net.species[i] for i in combo),
                    critical=not _has_conservation_support(net, combo),
                ))
    return out


def total_siphon(net: ReactionNetwork,
                 minimal: list[SiphonSet] | None = None) -> tuple[int, ...]:
    """Union of all minimal siphons: the default infection block."""
    minimal = minimal_siphons(net) if minimal is None else minimal
    members: set[int] = set()
    for s in minimal:
        members.update(s.indices)
    return tuple(sorted(members))


def dfe_closure(net: ReactionNetwork,
                start: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Closure of the total siphon under forced-extinction propagation.

    A species joins the closure when each of its net-producing reactions has
    a source inside the current set: once the set is held at zero all inflow
    into the species stops, so it vanishes from every equilibrium on the
    face. This is the set of compartments that are empty at any disease-free
    steady state, not merely the directly self-starving ones.
    """
    members = set(total_siphon(net) if start is None else start)
    Gamma = net.Gamma
    src = net.source_matrix
    changed = True
    while changed:
        changed = False
        for i in range(net.n_species):
            if i in members:
                continue
            producing = np.flatnonzero(Gamma[i, :] > 0)
            if producing.size and all(
                    any(src[j, r] > 0 for j in members) for r in producing):
                members.add(i)
                changed = True
    return tuple(sorted(members))


@dataclass(frozen=True)
class FaceBlocks:
    """Jacobian blocks at an equilibrium on an invariant coordinate face.

    Coordinates are permuted to (face block sigma, tangent block); for an
    invariant face the upper-right block D_tangent f_sigma vanishes, so the
    spectrum splits into the transversal block J_perp (invasion directions)
    and the tangential block J_tan.
    """

    order: tuple[int, ...]
    J_perp: np.ndarray
    J_tan: np.ndarray
    off_block: np.ndarray
    off_block_norm: float


def _fd_jacobian(rhs, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        h = step * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.asarray(rhs(xp)) - np.asarray(rhs(xm))) / (2.0 * h)
    return J


def face_block_jacobian(rhs, sigma, x_eq, n_samples: int = 20,
                        seed: int = 0) -> FaceBlocks:
    """Verify face invariance and split the Jacobian at a face equilibrium.

    sigma lists the coordinates held at zero. The face {x_sigma = 0} is
    probed at seeded random nonnegative points: the sigma components of the
    vector field must vanish there. x_eq must be an equilibrium lying on the
    face. The Jacobian is computed by central differences and permuted to
    (sigma, rest) order; the upper-right block is checked to vanish.

    Raises NotEquilibrium or NotInvariantFace accordingly.
    """
    x_eq = np.asarray(x_eq, dtype=float).ravel()
    d = x_eq.size
    sigma = tuple(sorted(int(i) for i in sigma))
    rest = tuple(i for i in range(d) if i not in sigma)
    if np.max(np.abs(x_eq[list(sigma)])) > 1e-12 * max(1.0, float(np.max(np.abs(x_eq)))):
        raise NotEquilibrium("x_eq does not lie on the requested face")
    scale = 1.0 + float(np.max(np.abs(x_eq)))
    res = float(np.max(np.abs(np.asarray(rhs(x_eq)))))
    if res > FACE_EQ_TOL * scale:
        raise NotEquilibrium(f"vector field residual {res:.3e} at x_eq")

    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        x = rng.uniform(0.0, 2.0, size=d) * np.where(x_eq > 0, x_eq, 1.0)
        x[list(sigma)] = 0.0
        f = np.asarray(rhs(x))
        bad = float(np.max(np.abs(f[list(sigma)])))
        if bad > FACE_SAMPLE_TOL * (1.0 + float(np.max(np.abs(f)))):
            raise NotInvariantFace(
                f"face components move by {bad:.3e} at a sampled face point"
            )

    J = _fd_jacobian(rhs, x_eq)
    order = sigma + rest
    Jp = J[np.ix_(order, order)]
    k = len(sigma)
    off = Jp[:k, k:]
    off_norm = float(np.max(np.abs(off))) if off.size else 0.0
    if off_norm > OFF_BLOCK_TOL * max(1.0, float(np.max(np.abs(J)))):
        raise NotInvariantFace(
            f"upper-right Jacobian block has norm {off_norm:.3e}; face not invariant"
        )
    return FaceBlocks(order=order, J_perp=Jp[:k, :k], J_tan=Jp[k:, k:],
                      off_block=off, off_block_norm=off_norm)


@dataclass(frozen=True)
class SpeciesSplit:
    """Assignment of network species to susceptible and infection blocks."""

    s_indices: tuple[int, ...]
    i_indices: tuple[int, ...]
    s_species: tuple[str, ...]
    i_species: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"s_species": list(self.s_species), "i_species": list(self.i_species)}


def network_to_bilinear(net: ReactionNetwork,
                        i_species: tuple[str, ...] | None = None,
                        rng_seed: int = 0,
                        tol: float = ROUNDTRIP_TOL
                        ) -> tuple[BilinearModel, SpeciesSplit]:
    """Extract the balanced bilinear matrix bundle from a mass-action network.

    The infection block defaults to the union of the network's minimal
    siphons; pass i_species to override. The mass-action field is probed at
    basis states, which determines every matrix exactly when the dynamics
    really are of the form

        S' = Lambda + A_S S - Diag(S) B I + C I
        I' = P Diag(S) B I + A I,

    and the result is audited two ways: the extracted P must be
    column-stochastic (the "balanced" in the name: infections leaving S all
    land in I), and the reassembled field must match the network's field at
    seeded random states. Saturating or higher-order kinetics fail the
    audit.

    Raises
    ------
    NotBalancedBilinear
        When the audit fails or the structure cannot be extracted.
    """
    if i_species is None:
        i_idx = total_siphon(net)
    else:
        i_idx = tuple(sorted(net.index(s) for s in i_species))
    s_idx = tuple(i for i in range(net.n_species) if i not in i_idx)
    if not i_idx or not s_idx:
        raise NotBalancedBilinear("need at least one susceptible and one infection species")
    m, n = len(s_idx), len(i_idx)

    def f_split(x_s, x_i):
        x = np.zeros(net.n_species)
        x[list(s_idx)] = x_s
        x[list(i_idx)] = x_i
        f = net.rhs(x)
        return f[list(s_idx)], f[list(i_idx)]

    zero_s, zero_i = np.zeros(m), np.zeros(n)
    Lam, fI0 = f_split(zero_s, zero_i)
    if np.max(np.abs(fI0)) > tol:
        raise NotBalancedBilinear("infection block has constant inflow")

    A_S = np.empty((m, m))
    for i in range(m):
        e = zero_s.copy(); e[i] = 1.0
        A_S[:, i] = f_split(e, zero_i)[0] - Lam
    A = np.empty((n, n))
    C = np.empty((m, n))
    for j in range(n):
        e = zero_i.copy(); e[j] = 1.0
        fS, fI = f_split(zero_s, e)
        A[:, j] = fI
        C[:, j] = fS - Lam

    B = np.empty((m, n))
    W = np.empty((n, m, n))  # W[:, i, j] = p_i * B[i, j]
    for i in range(m):
        es = zero_s.copy(); es[i] = 1.0
        for j in range(n):
            ei = zero_i.copy(); ei[j] = 1.0
            fS, fI = f_split(es, ei)
            B[i, j] = -(fS - Lam - A_S[:, i] - C[:, j])[i] + 0.0
            W[:, i, j] = fI - A[:, j]

    P = np.empty((n, m))
    for i in range(m):
        j = int(np.argmax(np.abs(B[i, :])))
        if B[i, j] == 0.0:
            P[:, i] = 1.0 / n  # class transmits nothing; routing unconstrained
        else:
            P[:, i] = W[:, i, j] / B[i, j]

    model = BilinearModel(A=A, A_S=A_S, B=B, P=P, Lambda=Lam, C=C)
    colsum_err = float(np.max(np.abs(P.sum(axis=0) - 1.0)))
    if colsum_err > COLSUM_TOL:
        raise NotBalancedBilinear(
            f"extracted routing matrix is not column-stochastic "
            f"(max |colsum - 1| = {colsum_err:.3e}); dynamics are bilinear but "
            f"not balanced"
        )

    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(0.0, 2.0, size=(100, net.n_species))
    f_net = net.rhs(X)
    stacked = np.concatenate([X[:, list(s_idx)], X[:, list(i_idx)]], axis=1)
    f_mod = model.rhs(stacked)
    f_mod_net_order = np.empty_like(f_net)
    f_mod_net_order[:, list(s_idx)] = f_mod[:, :m]
    f_mod_net_order[:, list(i_idx)] = f_mod[:, m:]
    gap = float(np.max(np.abs(f_net - f_mod_net_order)))
    if gap > tol * max(1.0, float(np.max(np.abs(f_net)))):
        raise NotBalancedBilinear(
            f"reassembled field mismatches the network by {gap:.3e}; "
            f"kinetics are not balanced bilinear"
        )
    split = SpeciesSplit(
        s_indices=s_idx, i_indices=i_idx,
        s_species=tuple(net.species[i] for i in s_idx),
        i_species=tuple(net.species[i] for i in i_idx),
    )
    return model, split
