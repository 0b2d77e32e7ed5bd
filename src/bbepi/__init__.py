"""Equilibrium, spectral, Lyapunov, and siphon analysis for balanced
bilinear epidemic models.

The model class covers compartmental systems whose infection pressure is
bilinear in susceptible and infected coordinates and whose new infections
are routed by a column-stochastic matrix:

    S' = Lambda + A_S S - Diag(S) B I + C I
    I' = P Diag(S) B I + A I

with A and A_S Metzler and Hurwitz, B >= 0 the transmission matrix, P
column-stochastic routing, Lambda >= 0 inflow, and C >= 0 an optional
recovery-feedback term. The package computes disease-free and endemic
equilibria, reproduction numbers and next-generation spectra, closed-form
Perron eigenvector tables for rank-one transmission, Jacobian determinant
identities, bifurcation structure of the endemic amplitude law, Lyapunov
decrease certificates, and reaction-network siphon/face structure, plus a
deterministic CLI (`bbepi`) binding it all together.
"""

from .errors import (AnalysisError, BelowThreshold, DegenerateB,
                     DimensionMismatch, IdentityViolation, InvalidModel,
                     NegativeRate, NoConvergence, NonDiagonalAS,
                     NonFiniteValue, NonPositiveState, NotApplicable, NotBalancedBilinear,
                     NotCaseP, NotEquilibrium, NotInvariantFace,
                     NotRankOne, NotRegularSplitting, ParseError,
                     PositivityViolation, RankTestFailure, SingularMatrix,
                     StepUnderflow, TooManySpecies, UnknownSpecies)
from .model import (AccessReport, BilinearModel, CheckResult, RankClass,
                    RankTag, StateVector, ValidationReport, classify_rank,
                    load_model, loads_model, validate_accessibility,
                    validate_model)
from .spectral import (KirchhoffData, SpectralData, adjugate, is_irreducible,
                       kirchhoff_perron, m_inverse, perron, spectral_abscissa)
from .ngm import (EigTable, NgmBundle, dwell_times, eig_table,
                  force_of_infection, loop_gain, loop_ngm, ngm_at,
                  replacement_vector)
from .equilibrium import (DeterminantLaw, EndemicPoint, EquilibriumReport,
                          ScalarLaw, determinant_law, dfe, endemic_rank_one,
                          endemic_spectral, feedback_analysis, jacobian,
                          reproduction_number, residual_inf)
from .lyapunov import (LyapunovCertificate, SamplingConfig, ee_weights,
                       v_dfe, v_ee, v_transversal, verify_decrease)
from .sim import (BatchTrajectory, IntegratorConfig, Trajectory,
                  convergence_fraction, integrate, integrate_batch,
                  sample_initial_conditions)
from .crn import (FaceBlocks, Reaction, ReactionNetwork, SiphonSet,
                  SpeciesSplit, dfe_closure, face_block_jacobian, is_siphon,
                  load_reactions, minimal_siphons, network_to_bilinear,
                  parse_reactions, total_siphon)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
