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

import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    """Species-indexed reaction list with its stoichiometric matrix.

    The source, output and stoichiometric matrices (one column per reaction)
    are built once, read-only. So is the gather plan of `rates`: each
    reaction's source species in increasing order, padded to a common width,
    with the multiplicities grouped by value.
    """

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        if self.reactions:
            src = np.array([r.source for r in self.reactions]).T
            out = np.array([r.output for r in self.reactions]).T
        else:
            src = out = np.zeros((len(self.species), 0))
        supports = [np.flatnonzero(r.source) for r in self.reactions]
        sizes = np.array([s.size for s in supports], dtype=np.intp)
        width = int(sizes.max(initial=0))
        idx = np.zeros((sizes.size, width), dtype=np.intp)
        expo = np.ones((sizes.size, width))
        for r, s in enumerate(supports):
            idx[r, :s.size] = s
            expo[r, :s.size] = self.reactions[r].source[s]
        pad = np.arange(width) >= sizes[:, None]
        # Scalar exponents only: an array-exponent power can round differently.
        powers = tuple((float(e), expo == e) for e in np.unique(expo) if e != 1.0)
        k = np.array([r.rate_constant for r in self.reactions], dtype=float)
        for name, arr in (("source_matrix", src), ("output_matrix", out),
                          ("Gamma", out - src), ("_src_idx", idx), ("_pad", pad),
                          ("_k", k)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_powers", powers)

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Mass-action rates at state(s) x, shape (..., n_species).

        Rate r is k_r times x_i ** s_i over its source species i, multiplied
        in increasing species order, so it rounds as that product would.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.n_reactions,))
        out[...] = self._k
        factors = x[..., self._src_idx]
        for e, mask in self._powers:
            factors[..., mask] = factors[..., mask] ** e
        factors[..., self._pad] = 1.0
        for j in range(factors.shape[-1]):
            out *= factors[..., j]
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
    idx = sorted(set(members))
    produces = np.any(net.Gamma[idx, :] > 0, axis=0)
    consumes = np.any(net.source_matrix[idx, :] > 0, axis=0)
    return not np.any(produces & ~consumes)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use so `import bbepi` loads no scipy.

    Nothing in the library calls it. It stays only because the benchmark's
    span tracer wraps this module attribute (bench/spans.py, target
    "crn.linprog") and fails if it is missing; it goes together with
    `equilibrium.brentq` once that target is dropped.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _minimal_supports(rows: list[tuple[list[int], int]]) -> list[tuple[list[int], int]]:
    """Rows whose support mask contains no other row's; one per support."""
    kept: list[tuple[list[int], int]] = []
    for row in sorted(rows, key=lambda r: r[1].bit_count()):
        if not any(s & row[1] == s for _, s in kept):
            kept.append(row)
    return kept


def _pairing_growth(table: list[tuple[list[int], int]], c: int) -> int:
    """Rows added minus rows dropped by cancelling column c."""
    pos = sum(vec[c] > 0 for vec, _ in table)
    neg = sum(vec[c] < 0 for vec, _ in table)
    return pos * neg - pos - neg


def _has_conservation_support(net: ReactionNetwork, members: tuple[int, ...]) -> bool:
    """Is there y >= 0, y != 0, supported inside `members`, with y Gamma = 0?

    P-semiflow elimination (Martinez & Silva 1982) in exact integers. Each
    table row is a nonnegative combination of member rows of Gamma, kept as
    its integer entries and the bitmask of members it combines. Column by
    column, every row with a positive entry is paired with every row with a
    negative one so that the column cancels, rows still nonzero there are
    dropped, and only rows of minimal support are kept: these are the extreme
    rays of the cone of nonnegative combinations cancelling the columns done
    so far. A conservation law exists exactly when a row survives every
    column, and a row that is already zero does.
    """
    sub = net.Gamma[list(members), :]
    sub = sub[:, np.any(sub != 0.0, axis=0)]
    # A finite float is p / q with q a power of two, so one common
    # denominator makes every entry an exact integer.
    ratios = [[v.as_integer_ratio() for v in row.tolist()] for row in sub]
    denom = max((q for row in ratios for _, q in row), default=1)
    table = [([p * (denom // q) for p, q in row], 1 << i)
             for i, row in enumerate(ratios)]
    todo = list(range(sub.shape[1]))
    while table:
        if any(not any(vec) for vec, _ in table):
            return True
        # Cancel first the column whose pairings grow the table least.
        c = min(todo, key=lambda col: _pairing_growth(table, col))
        todo.remove(c)
        nxt = [row for row in table if row[0][c] == 0]
        for a, sa in table:
            if a[c] <= 0:
                continue
            for b, sb in table:
                if b[c] >= 0:
                    continue
                vec = [-b[c] * u + a[c] * v for u, v in zip(a, b)]
                g = math.gcd(*vec)
                nxt.append(([u // g for u in vec] if g > 1 else vec, sa | sb))
        table = _minimal_supports(nxt)
    return False


def minimal_siphons(net: ReactionNetwork,
                    cap: int = MAX_SPECIES_EXACT) -> list[SiphonSet]:
    """All inclusion-minimal nonempty siphons, exactly.

    A branching closure (after Nabli, Fages, Martinez & Soliman, Constraints
    2016) grows each singleton {i}: while some reaction produces a member
    but consumes none, every siphon containing the current set contains one
    of that reaction's source species, so the search branches on them (and
    dies on a reaction with no source). Every minimal siphon is reached from
    each of its members; the inclusion-minimal sets found are returned by
    size, then by indices. Refuses networks above `cap` species.

    Each returned siphon carries a criticality flag: critical means its
    members do not jointly support a nonnegative conservation law of the
    stoichiometry (decided by exact integer elimination, see
    `_has_conservation_support`).
    """
    n = net.n_species
    if n > cap:
        raise TooManySpecies(f"exact enumeration capped at {cap} species, got {n}")

    def mask_of(column) -> int:
        return sum(1 << int(i) for i in np.flatnonzero(column))

    masks = [(mask_of(net.Gamma[:, r] > 0), mask_of(net.source_matrix[:, r] > 0))
             for r in range(net.n_reactions)]
    found: list[int] = []
    seen: set[int] = set()
    stack = [1 << i for i in range(n)]
    while stack:
        mask = stack.pop()
        if mask in seen or any(mask & f == f for f in found):
            continue
        seen.add(mask)
        # Of the reactions feeding the set without drawing on it, branch on
        # the one with the fewest source species.
        branch = None
        for produced, consumed in masks:
            if mask & produced and not mask & consumed and (
                    branch is None or consumed.bit_count() < branch.bit_count()):
                branch = consumed
        if branch is None:
            found = [f for f in found if mask & f != mask] + [mask]
        else:
            stack.extend(mask | 1 << j for j in range(n) if branch >> j & 1)
    combos = sorted((tuple(i for i in range(n) if f >> i & 1) for f in found),
                    key=lambda c: (len(c), c))
    return [SiphonSet(indices=combo,
                      species=tuple(net.species[i] for i in combo),
                      critical=not _has_conservation_support(net, combo))
            for combo in combos]


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
