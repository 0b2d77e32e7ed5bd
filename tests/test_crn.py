"""Reaction parsing, siphon structure, face Jacobians, structure extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import bbepi as bb
from bbepi.crn import (Reaction, ReactionNetwork, _has_conservation_support,
                       dfe_closure)
from conftest import (oracle_fd_jacobian, oracle_mass_action_rates,
                      oracle_mass_action_rhs, oracle_minimal_siphons)

SIRS = """
# susceptible-infected-recovered with waning immunity
s + i -> 2 i : 2.0
i -> r : 1.0
r -> s : 1.0
"""

SIRS_DEMOGRAPHY = """
species: s i r
-> s : 1.0
s -> : 1.0
i -> : 1.0
r -> : 1.0
s + i -> 2 i : 2.5
i -> r : 1.5
r -> s : 0.5
"""


def random_network(rng, n_species: int, n_reactions: int,
                   max_count: int = 2) -> ReactionNetwork:
    """Random sparse network; only the support pattern matters for siphons."""
    reactions = []
    for _ in range(n_reactions):
        src = np.zeros(n_species)
        out = np.zeros(n_species)
        for i in rng.choice(n_species, size=int(rng.integers(0, 3)), replace=False):
            src[i] = float(rng.integers(1, max_count + 1))
        for i in rng.choice(n_species, size=int(rng.integers(0, 3)), replace=False):
            out[i] = float(rng.integers(1, max_count + 1))
        if not src.any() and not out.any():
            out[int(rng.integers(n_species))] = 1.0
        reactions.append(Reaction(source=src, output=out,
                                  rate_constant=float(rng.uniform(0.5, 2.0))))
    return ReactionNetwork(species=tuple(f"x{i}" for i in range(n_species)),
                           reactions=tuple(reactions))


def staged_network(k: int) -> ReactionNetwork:
    """Susceptible s, stages i1..ik, recovered r; every stage infects into i1."""
    stages = [f"i{j}" for j in range(1, k + 1)]
    lines = [f"species: s {' '.join(stages)} r", "-> s : 10.0", "s -> : 10.0",
             "r -> s : 1.0", "r -> : 10.0"]
    for j, name in enumerate(stages, start=1):
        lines.append(f"s + {name} -> {'2 i1' if j == 1 else 'i1 + ' + name} : 0.1")
        lines.append(f"{name} -> {stages[j] if j < k else 'r'} : 1.0")
        lines.append(f"{name} -> : 0.1")
    return bb.parse_reactions("\n".join(lines))


# ---------------------------------------------------------------- parsing

def test_parse_sirs_structure():
    net = bb.parse_reactions(SIRS)
    assert net.species == ("s", "i", "r")
    assert net.n_reactions == 3
    expected_Gamma = np.array([[-1.0, 0.0, 1.0],
                               [1.0, -1.0, 0.0],
                               [0.0, 1.0, -1.0]])
    assert np.array_equal(net.Gamma, expected_Gamma)
    assert [r.rate_constant for r in net.reactions] == [2.0, 1.0, 1.0]


def test_parse_inflow_outflow_and_multiplicity():
    net = bb.parse_reactions("-> s : 3.0\ns -> : 0.5\n2 a -> 3 a : 1.5")
    assert net.species == ("s", "a")
    inflow, outflow, auto = net.reactions
    assert np.array_equal(inflow.source, [0.0, 0.0])
    assert np.array_equal(inflow.output, [1.0, 0.0])
    assert np.array_equal(outflow.source, [1.0, 0.0])
    assert np.array_equal(auto.source, [0.0, 2.0])
    assert np.array_equal(auto.output, [0.0, 3.0])


def test_parse_species_directive_controls_order():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    assert net.species == ("s", "i", "r")
    assert net.n_reactions == 7


def test_parse_empty_input_gives_empty_network():
    net = bb.parse_reactions("# nothing here\n\n")
    assert net.species == ()
    assert net.n_reactions == 0
    assert net.Gamma.shape == (0, 0)


@pytest.mark.parametrize("text,line", [
    ("s + i : 2.0", 1),                      # missing arrow
    ("s -> i", 1),                           # missing rate separator
    ("s -> i : fast", 1),                    # non-numeric rate
    ("a -> b : 1.0\n-> : 1.0", 2),           # both sides empty
    ("a -> b : 1.0\n2 -> b : 1.0", 2),       # count without a name
    ("a -> b : 1.0\nspecies: a b", 2),       # directive after a reaction
    ("species:", 1),                         # directive with no names
    ("species: a a", 1),                     # duplicate name
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(bb.ParseError) as err:
        bb.parse_reactions(text)
    assert err.value.line == line


def test_parse_rejects_nonpositive_rate():
    with pytest.raises(bb.NegativeRate):
        bb.parse_reactions("s -> i : -2.0")
    with pytest.raises(bb.NegativeRate):
        bb.parse_reactions("s -> i : 0.0")


def test_parse_rejects_undeclared_species():
    with pytest.raises(bb.UnknownSpecies) as err:
        bb.parse_reactions("species: a b\na -> c : 1.0")
    assert err.value.line == 2


def test_mass_action_rhs_values():
    net = bb.parse_reactions(SIRS)
    # At (s, i, r) = (1, 1, 0): infection runs at 2, recovery at 1, waning 0.
    assert net.rhs(np.array([1.0, 1.0, 0.0])) == pytest.approx([-2.0, 1.0, 1.0])
    assert net.rhs(np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0])
    # Closed network: columns of Gamma sum to zero, so mass is conserved.
    assert net.rhs(np.array([0.3, 0.5, 0.2])).sum() == pytest.approx(0.0, abs=1e-15)


def test_rhs_batched_matches_loop():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    rng = np.random.default_rng(10)
    X = rng.uniform(0.0, 2.0, size=(40, 3))
    batch = net.rhs(X)
    for k in range(40):
        assert batch[k] == pytest.approx(net.rhs(X[k]), abs=1e-14)


MULTIPLICITY = """
species: a b c
-> a : 0.7
2 a + b -> 3 c : 1.3
3 b -> a + b : 0.45
a + 2 b + 3 c -> : 2.1
c -> 2 b : 1.9
"""


@pytest.mark.parametrize("shape", [(), (1,), (40,), (3, 5)])
def test_mass_action_field_keeps_the_loop_bits(shape):
    rng = np.random.default_rng(14)
    nets = [bb.parse_reactions(MULTIPLICITY), bb.parse_reactions(SIRS_DEMOGRAPHY)]
    nets += [random_network(rng, n, 2 * n, max_count=3) for n in (2, 5, 9)]
    for net in nets:
        x = rng.uniform(0.0, 3.0, size=shape + (net.n_species,))
        x[rng.random(x.shape) < 0.2] = 0.0
        assert np.array_equal(net.rates(x), oracle_mass_action_rates(net, x))
        assert np.array_equal(net.rhs(x), oracle_mass_action_rhs(net, x))


def test_reactionless_network_field():
    net = ReactionNetwork(species=("a", "b"), reactions=())
    for x in (np.ones(2), np.ones((4, 2))):
        assert net.rates(x).shape == x.shape[:-1] + (0,)
        assert np.array_equal(net.rhs(x), oracle_mass_action_rhs(net, x))
        assert not net.rhs(x).any()


def test_load_reactions_roundtrip(tmp_path):
    path = tmp_path / "net.rxn"
    path.write_text(SIRS)
    net = bb.load_reactions(path)
    assert net.species == ("s", "i", "r")


# ---------------------------------------------------------------- siphons

def test_sirs_minimal_siphons_and_criticality():
    net = bb.parse_reactions(SIRS)
    sips = bb.minimal_siphons(net)
    assert [s.species for s in sips] == [("i",)]
    # {i} carries no conservation law of its own, so it is critical.
    assert sips[0].critical
    assert bb.total_siphon(net) == (net.index("i"),)


def test_siphon_predicate_direct():
    net = bb.parse_reactions(SIRS)
    i = net.index("i")
    assert bb.is_siphon(net, (i,))
    assert not bb.is_siphon(net, (net.index("s"),))  # waning produces s from r
    assert bb.is_siphon(net, (0, 1, 2))  # full set is always a siphon


def test_two_decoupled_copies_give_two_siphons():
    text = """
    s1 + i1 -> 2 i1 : 2.0
    i1 -> s1 : 1.0
    s2 + i2 -> 2 i2 : 3.0
    i2 -> s2 : 1.0
    """
    net = bb.parse_reactions(text)
    sips = bb.minimal_siphons(net)
    assert sorted(s.species for s in sips) == [("i1",), ("i2",)]
    assert bb.total_siphon(net) == (net.index("i1"), net.index("i2"))


def test_no_reactions_every_singleton_is_a_siphon():
    net = ReactionNetwork(species=("a", "b"), reactions=())
    sips = bb.minimal_siphons(net)
    assert sorted(s.species for s in sips) == [("a",), ("b",)]


def test_minimal_siphons_match_power_set_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        net = random_network(rng, n, int(rng.integers(2, 2 * n)))
        got = sorted(s.indices for s in bb.minimal_siphons(net))
        assert got == oracle_minimal_siphons(net)


def test_minimal_siphons_species_cap():
    net = ReactionNetwork(species=tuple(f"x{i}" for i in range(25)),
                          reactions=())
    with pytest.raises(bb.TooManySpecies):
        bb.minimal_siphons(net)


@st.composite
def networks(draw, max_species: int = 10) -> ReactionNetwork:
    n = draw(st.integers(1, max_species))
    side = st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=2)
    reactions = []
    for src_terms, out_terms in draw(st.lists(st.tuples(side, side), max_size=2 * n)):
        src, out = np.zeros(n), np.zeros(n)
        src[list(src_terms)] = list(src_terms.values())
        out[list(out_terms)] = list(out_terms.values())
        if src.any() or out.any():
            reactions.append(Reaction(source=src, output=out, rate_constant=1.0))
    return ReactionNetwork(species=tuple(f"x{i}" for i in range(n)),
                           reactions=tuple(reactions))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(networks())
def test_minimal_siphons_match_power_set_oracle_on_drawn_networks(net):
    got = [s.indices for s in bb.minimal_siphons(net)]
    # Output order is by size, then by indices.
    assert got == sorted(oracle_minimal_siphons(net), key=lambda c: (len(c), c))


def test_staged_network_at_the_cap_has_only_the_stage_block():
    net = staged_network(22)
    assert net.n_species == bb.crn.MAX_SPECIES_EXACT
    sips = bb.minimal_siphons(net)
    assert [s.indices for s in sips] == [tuple(range(1, 23))]
    assert sips[0].critical  # every stage has its own outflow


def lp_conservation_support(net: ReactionNetwork, members) -> bool:
    """Feasibility LP: y >= 0, y^T Gamma[members] = 0, sum y = 1."""
    sub = net.Gamma[list(members), :]
    k = len(members)
    A_eq = np.vstack([sub.T, np.ones((1, k))])
    b_eq = np.concatenate([np.zeros(sub.shape[1]), [1.0]])
    res = linprog(c=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * k, method="highs")
    return res.status == 0


def test_conservation_support_matches_linprog():
    rng = np.random.default_rng(15)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(2, 12))
        net = random_network(rng, n, int(rng.integers(1, 3 * n)), max_count=3)
        members = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                          replace=False).tolist()))
        verdict = _has_conservation_support(net, members)
        assert verdict == lp_conservation_support(net, members), (net, members)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_conservation_support_is_exact_for_fractional_stoichiometry():
    # 0.5 a -> b and b -> 0.5 a conserve a + 2 b; 0.1 is not a binary
    # fraction, yet 0.1 a -> 0.1 b conserves a + b exactly.
    half = ReactionNetwork(species=("a", "b"), reactions=(
        Reaction(source=[0.5, 0.0], output=[0.0, 1.0], rate_constant=1.0),
        Reaction(source=[0.0, 1.0], output=[0.5, 0.0], rate_constant=1.0)))
    assert _has_conservation_support(half, (0, 1))
    assert not _has_conservation_support(half, (0,))
    tenth = ReactionNetwork(species=("a", "b"), reactions=(
        Reaction(source=[0.1, 0.0], output=[0.0, 0.1], rate_constant=1.0),))
    assert _has_conservation_support(tenth, (0, 1))


def test_criticality_flags_conserved_pair():
    # a <-> b holds a + b constant: {a, b} is a siphon supporting a
    # conservation law (not critical), while neither singleton is a siphon.
    net = bb.parse_reactions("a -> b : 1.0\nb -> a : 2.0")
    sips = bb.minimal_siphons(net)
    assert [s.species for s in sips] == [("a", "b")]
    assert not sips[0].critical


def test_dfe_closure_propagates_starvation():
    # r is fed only by i, so holding i at zero eventually empties r too;
    # the closure grows past the total siphon.
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    assert bb.total_siphon(net) == (net.index("i"),)
    assert dfe_closure(net) == (net.index("i"), net.index("r"))


# ---------------------------------------------------------- face Jacobians

def test_face_blocks_on_sirs_demography():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    # Disease-free equilibrium: s = 1 from inflow/outflow balance, i = r = 0.
    x_eq = np.array([1.0, 0.0, 0.0])
    blocks = bb.face_block_jacobian(net.rhs, sigma=(net.index("i"),), x_eq=x_eq)
    # Transversal block is the scalar invasion rate beta*s0 - gamma - mu.
    assert blocks.J_perp == pytest.approx(np.array([[2.5 - 1.5 - 1.0]]), abs=1e-6)
    assert blocks.off_block_norm <= 1e-7
    assert blocks.J_tan.shape == (2, 2)


def test_face_blocks_match_fd_oracle_on_model():
    rng = np.random.default_rng(12)
    from conftest import random_model
    model = random_model(rng, 2, 2)
    S0 = bb.dfe(model)
    x_eq = np.concatenate([S0, np.zeros(2)])
    blocks = bb.face_block_jacobian(model.rhs, sigma=(2, 3), x_eq=x_eq)
    # The infection block at the disease-free point is F(S0) + A.
    K_block = model.P @ np.diag(S0) @ model.B + model.A
    assert blocks.J_perp == pytest.approx(K_block, abs=1e-5)
    J = oracle_fd_jacobian(model.rhs, x_eq)
    assert blocks.J_tan == pytest.approx(J[:2, :2], abs=1e-6)


def test_face_blocks_reject_non_equilibrium():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    with pytest.raises(bb.NotEquilibrium):
        bb.face_block_jacobian(net.rhs, sigma=(1,), x_eq=np.array([2.0, 0.0, 0.5]))
    with pytest.raises(bb.NotEquilibrium):
        # Off the face entirely.
        bb.face_block_jacobian(net.rhs, sigma=(1,), x_eq=np.array([1.0, 0.5, 0.0]))


def test_face_blocks_reject_non_invariant_face():
    # The origin is an equilibrium on the face {x1 = 0}, but the face leaks:
    # x0 feeds x1 at every other face point.
    def field(x):
        return np.array([-x[0], x[0] - 2.0 * x[1]])

    with pytest.raises(bb.NotInvariantFace):
        bb.face_block_jacobian(field, sigma=(1,), x_eq=np.zeros(2))


def test_face_blocks_linear_triangular_system():
    # x' = M x with M block triangular: the face {x0 = 0} is invariant and
    # the blocks are read straight off M.
    M = np.array([[-2.0, 0.0], [1.0, -3.0]])

    def field(x):
        return M @ x

    blocks = bb.face_block_jacobian(field, sigma=(0,), x_eq=np.zeros(2))
    assert blocks.J_perp == pytest.approx(np.array([[-2.0]]), abs=1e-6)
    assert blocks.J_tan == pytest.approx(np.array([[-3.0]]), abs=1e-6)


# ------------------------------------------------------ structure extraction

def test_network_to_bilinear_sirs_demography():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    model, split = bb.network_to_bilinear(net)
    assert split.i_species == ("i",)
    assert split.s_species == ("s", "r")
    assert model.m == 2 and model.n == 1
    assert model.Lambda == pytest.approx([1.0, 0.0])
    # Susceptible block: s decays at 1 and receives waning 0.5 from r;
    # r decays at its own outflow plus waning.
    assert model.A_S == pytest.approx(np.array([[-1.0, 0.5], [0.0, -1.5]]))
    assert model.B == pytest.approx(np.array([[2.5], [0.0]]))
    assert model.P == pytest.approx(np.array([[1.0, 1.0]]))
    assert model.A == pytest.approx(np.array([[-2.5]]))  # recovery 1.5 + death 1.0
    assert model.C == pytest.approx(np.array([[0.0], [1.5]]))  # recovery lands in r


def test_network_to_bilinear_roundtrip_field():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    model, split = bb.network_to_bilinear(net)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.uniform(0.0, 3.0, size=3)
        f_net = net.rhs(x)
        x_model = np.concatenate([x[list(split.s_indices)],
                                  x[list(split.i_indices)]])
        f_model = model.rhs(x_model)
        assert f_model[:2] == pytest.approx(f_net[list(split.s_indices)],
                                            abs=1e-12)
        assert f_model[2:] == pytest.approx(f_net[list(split.i_indices)],
                                            abs=1e-12)


def test_network_to_bilinear_i_species_override():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    model, split = bb.network_to_bilinear(net, i_species=("i", "r"))
    assert split.i_species == ("i", "r")
    assert model.m == 1 and model.n == 2


def test_network_to_bilinear_rejects_higher_order_kinetics():
    # i + i contact is quadratic in the infection block, not bilinear.
    text = """
    -> s : 1.0
    s -> : 1.0
    s + i -> 2 i : 2.0
    2 i -> i : 0.5
    i -> : 1.0
    """
    net = bb.parse_reactions(text)
    with pytest.raises(bb.NotBalancedBilinear):
        bb.network_to_bilinear(net)


def test_network_to_bilinear_rejects_constant_infection_inflow():
    text = """
    -> s : 1.0
    s -> : 1.0
    -> i : 0.3
    s + i -> 2 i : 2.0
    i -> : 1.0
    """
    net = bb.parse_reactions(text)
    with pytest.raises(bb.NotBalancedBilinear) as err:
        bb.network_to_bilinear(net, i_species=("i",))
    assert "inflow" in str(err.value)


def test_network_to_bilinear_needs_both_blocks():
    net = bb.parse_reactions("s + i -> 2 i : 1.0\ni -> s : 1.0")
    with pytest.raises(bb.NotBalancedBilinear):
        bb.network_to_bilinear(net, i_species=("s", "i"))


def test_extracted_model_analysis_chain():
    # The conversion feeds straight into the analysis pipeline.
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    model, _ = bb.network_to_bilinear(net)
    report = bb.validate_model(model)
    assert report.passed
    rank = bb.classify_rank(model)
    R0 = bb.reproduction_number(model)
    assert R0 == pytest.approx(2.5 / 2.5, abs=1e-12)  # beta*s0 / exit = 1
    assert rank.tag is not None
