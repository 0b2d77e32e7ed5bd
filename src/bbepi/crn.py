"""Reaction networks: parsing, mass-action dynamics, siphons, face structure.

A network is a list of reactions `source -> output : rate_constant` over
named species. Mass-action rates are monomials in the source multiplicities,
so every reaction that net-consumes a species has that species in its source
and the nonnegative orthant is forward invariant.

A siphon is a species set such that every reaction producing a member also
consumes a member. The coordinate face {x_sigma = 0} is forward invariant
exactly when sigma is a siphon (Angeli, De Leenheer & Sontag 2007), and the
exact Jacobian (ReactionNetwork.jacobian: a mass-action field is a
polynomial) at an equilibrium on the face is block triangular. Siphons whose
members do not jointly support a nonnegative conservation law ("critical"
siphons) are the candidate extinction faces.

network_to_bilinear reads the balanced bilinear susceptible/infection matrix
bundle straight off the reactions: each reaction is one monomial of the form
(inflow, a linear flow, or one contact S_i I_j), anything else is rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (NegativeRate, NotBalancedBilinear, NotEquilibrium,
                     NotInvariantFace, ParseError, TooManySpecies,
                     UnknownSpecies)
from .model import COLSUM_TOL, BilinearModel

MAX_SPECIES_EXACT = 24
FACE_EQ_TOL = 1e-9

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
    are built once, read-only. So is the gather plan of `rates` and
    `jacobian`: each reaction's source species in increasing order, padded
    to a common width, with their multiplicities (grouped by value too).
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
                          ("_expo", expo), ("_k", k)):
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

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact Jacobian Gamma @ d rates / dx, (d, d), at one state x of shape (d,).

        Each factor x_i ** e of a rate has slope e * x_i ** (e - 1) (a pad:
        value 1, slope 0), and d rate_r / d x_i is k_r times that slope times
        the product of the other factors. The product is taken without
        division, so a zero coordinate gives exact zeros; 0.0 ** 0 == 1 makes
        the slope of a single x_i right at x_i = 0.
        """
        base = np.asarray(x, dtype=float)[self._src_idx]
        value = np.where(self._pad, 1.0, base ** self._expo)
        slope = np.where(self._pad, 0.0, self._expo * base ** (self._expo - 1.0))
        for j in range(value.shape[1]):
            slope[:, j] *= self._k * np.prod(np.delete(value, j, axis=1), axis=1)
        live = ~self._pad
        drates = np.zeros((self.n_reactions, self.n_species))
        drates[np.nonzero(live)[0], self._src_idx[live]] = slope[live]
        return self.Gamma @ drates

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


def minimal_siphons(net: ReactionNetwork) -> list[SiphonSet]:
    """All inclusion-minimal nonempty siphons, exactly.

    A branching closure (after Nabli, Fages, Martinez & Soliman, Constraints
    2016) grows each singleton {i}: while some reaction produces a member
    but consumes none, every siphon containing the current set contains one
    of that reaction's source species, so the search branches on them (and
    dies on a reaction with no source). Every minimal siphon is reached from
    each of its members; the inclusion-minimal sets found are returned by
    size, then by indices. Refuses networks above MAX_SPECIES_EXACT species.

    Each returned siphon carries a criticality flag: critical means its
    members do not jointly support a nonnegative conservation law of the
    stoichiometry (decided by exact integer elimination, see
    `_has_conservation_support`).
    """
    n = net.n_species
    if n > MAX_SPECIES_EXACT:
        raise TooManySpecies(
            f"exact enumeration capped at {MAX_SPECIES_EXACT} species, got {n}")

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
    """Jacobian blocks at an equilibrium on a siphon's coordinate face.

    Coordinates are permuted to (face block sigma, tangent block); the
    upper-right block D_tangent f_sigma vanishes, so the spectrum splits into
    the transversal block J_perp (invasion directions) and the tangential
    block J_tan.
    """

    order: tuple[int, ...]
    J_perp: np.ndarray
    J_tan: np.ndarray


def face_block_jacobian(net: ReactionNetwork, sigma, x_eq) -> FaceBlocks:
    """Split the exact Jacobian at an equilibrium on the face {x_sigma = 0}.

    x_eq must lie on the face and zero the field there (NotEquilibrium
    otherwise). The face is forward invariant exactly when sigma is a siphon
    (NotInvariantFace otherwise). net.jacobian(x_eq) is permuted to
    (sigma, rest) order and split. Its upper-right block is exactly zero: a
    reaction that produces a member has a member in its source (siphon), and
    so does one that consumes a member (mass action); either way its rate,
    and its partial in every non-member, vanish on the face.
    """
    x_eq = np.asarray(x_eq, dtype=float).ravel()
    d = x_eq.size
    sigma = tuple(sorted(int(i) for i in sigma))
    rest = tuple(i for i in range(d) if i not in sigma)
    if np.max(np.abs(x_eq[list(sigma)])) > 1e-12 * max(1.0, float(np.max(np.abs(x_eq)))):
        raise NotEquilibrium("x_eq does not lie on the requested face")
    scale = 1.0 + float(np.max(np.abs(x_eq)))
    res = float(np.max(np.abs(net.rhs(x_eq))))
    if res > FACE_EQ_TOL * scale:
        raise NotEquilibrium(f"vector field residual {res:.3e} at x_eq")
    if not is_siphon(net, sigma):
        names = " ".join(net.species[i] for i in sigma)
        raise NotInvariantFace(
            f"{{{names}}} is not a siphon; its face is not invariant")

    order = sigma + rest
    J = net.jacobian(x_eq)[np.ix_(order, order)]
    k = len(sigma)
    return FaceBlocks(order=order, J_perp=J[:k, :k], J_tan=J[k:, k:])


@dataclass(frozen=True)
class SpeciesSplit:
    """Assignment of network species to susceptible and infection blocks."""

    s_indices: tuple[int, ...]
    i_indices: tuple[int, ...]
    s_species: tuple[str, ...]
    i_species: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"s_species": list(self.s_species), "i_species": list(self.i_species)}


def _reaction_text(net: ReactionNetwork, rxn: Reaction) -> str:
    """A reaction as its file line without the rate, e.g. `2 i -> i`."""
    def side(v) -> str:
        return " + ".join((f"{c:g} " if c != 1 else "") + net.species[i]
                          for i, c in enumerate(v.tolist()) if c)
    return f"{side(rxn.source)} -> {side(rxn.output)}".strip()


def network_to_bilinear(net: ReactionNetwork,
                        i_species: tuple[str, ...] | None = None
                        ) -> tuple[BilinearModel, SpeciesSplit]:
    """Read the balanced bilinear matrix bundle off a mass-action network.

    The infection block defaults to the union of the minimal siphons; pass
    i_species to override. Each column of the form

        S' = Lambda + A_S S - Diag(S) B I + C I
        I' = P Diag(S) B I + A I

    multiplies one monomial, and so does each reaction: its source (every
    multiplicity 1) decides where its change k Gamma[:, r] is added.
    - empty: Lambda; the infection block may not change;
    - susceptible s: A_S[:, s]; the infection block may not change;
    - infection j: A[:, j] (infection rows) and C[:, j] (susceptible rows);
    - contact s + j: B[s, j] is minus the change of s, no other susceptible
      may change, and the infection rows add to P[:, s] B[s, j].
    A reaction that changes nothing is skipped. P[:, s] is read at the
    largest |B[s, j]| (1/n for a class that transmits nothing); the other
    contacts of s must route alike, and P must be column-stochastic (the
    "balanced": every infection leaving S lands in I). A reaction with no
    infection species in its source cannot lower one, so no reaction can
    undo a rejected change: the model's field is the network's by construction.

    Raises
    ------
    NotBalancedBilinear
        Naming a reaction outside the form, or on routing that differs
        between infection species or is not column-stochastic.
    """
    if i_species is None:
        i_idx = total_siphon(net)
    else:
        i_idx = tuple(sorted(net.index(s) for s in i_species))
    s_idx = tuple(i for i in range(net.n_species) if i not in i_idx)
    if not i_idx or not s_idx:
        raise NotBalancedBilinear("need at least one susceptible and one infection species")
    m, n = len(s_idx), len(i_idx)
    s_rows, i_rows = list(s_idx), list(i_idx)

    Lam, A_S, C = np.zeros(m), np.zeros((m, m)), np.zeros((m, n))
    A, B = np.zeros((n, n)), np.zeros((m, n))
    W = np.zeros((n, m, n))  # W[:, s, j] = P[:, s] * B[s, j]
    contact: dict[tuple[int, int], Reaction] = {}
    for r, rxn in enumerate(net.reactions):
        if not net.Gamma[:, r].any():
            continue
        delta = rxn.rate_constant * net.Gamma[:, r]
        d_s, d_i = delta[s_rows], delta[i_rows]
        src_s = tuple(np.flatnonzero(rxn.source[s_rows]))
        src_i = tuple(np.flatnonzero(rxn.source[i_rows]))
        why = None
        if len(src_s) > 1 or len(src_i) > 1 or \
                np.any(rxn.source[rxn.source != 0.0] != 1.0):
            why = "has a source other than empty, s, i or s + i"
        elif not src_i and d_i.any():
            why = "is an inflow into the infection block"
        elif src_s and src_i and np.delete(d_s, src_s[0]).any():
            why = "is a contact that changes a susceptible species outside its source"
        if why:
            raise NotBalancedBilinear(
                f"reaction '{_reaction_text(net, rxn)}' {why}; not balanced bilinear")
        if not src_i:
            column = A_S[:, src_s[0]] if src_s else Lam
            column += d_s
        elif not src_s:
            A[:, src_i[0]] += d_i
            C[:, src_i[0]] += d_s
        else:
            s, j = src_s[0], src_i[0]
            B[s, j] -= d_s[s]
            W[:, s, j] += d_i
            contact.setdefault((s, j), rxn)

    P = np.full((n, m), 1.0 / n)
    for s in range(m):
        j = int(np.argmax(np.abs(B[s, :])))
        if B[s, j] != 0.0:
            P[:, s] = W[:, s, j] / B[s, j]
    gap = np.abs(W - P[:, :, None] * B).max(axis=0)
    if gap.max() > COLSUM_TOL * np.abs(W).max():
        s, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise NotBalancedBilinear(
            f"reaction '{_reaction_text(net, contact[s, j])}' routes new "
            f"infections unlike the other contacts of {net.species[s_idx[s]]} "
            f"(by {gap[s, j]:.3e}); not balanced bilinear")
    colsum_err = float(np.max(np.abs(P.sum(axis=0) - 1.0)))
    if colsum_err > COLSUM_TOL:
        raise NotBalancedBilinear(
            f"extracted routing matrix is not column-stochastic "
            f"(max |colsum - 1| = {colsum_err:.3e}); dynamics are bilinear but "
            f"not balanced")
    split = SpeciesSplit(
        s_indices=s_idx, i_indices=i_idx,
        s_species=tuple(net.species[i] for i in s_idx),
        i_species=tuple(net.species[i] for i in i_idx),
    )
    return BilinearModel(A=A, A_S=A_S, B=B, P=P, Lambda=Lam, C=C), split
