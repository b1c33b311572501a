"""Exact solver and brute-force certifier for fair division of mixed manna.

Computes allocations of indivisible items (goods, chores, and
zero/positive items) that are simultaneously Pareto-optimal and fair in
the one-item-adjustment sense, then certifies the result with
independent exact checks. All arithmetic is exact rational.
"""

from __future__ import annotations

from .augmenting import AugmentState, RootedForest, augment, construct_X, root_at, solve_by_augmenting
from .certificate import Certificate, instance_digest, instance_from_dict, instance_to_dict
from .errors import (
    DegeneracyError,
    InputError,
    MannaError,
    SizeGuardError,
    SoundnessError,
    VerificationError,
)
from .kkm import MembershipSummary, find_wstar, membership_summary
from .leveling import LevelState, compute_tau, find_leveled, p_plus
from .model import (
    Allocation,
    Bundle,
    Instance,
    SwapWitness,
    bundle_value,
    ief1_witnesses,
    is_ief1,
    parse_rat,
    pareto_dominates,
    social_welfare,
    sym_diff,
)
from .oracles import (
    VerificationReport,
    brute_find_ief1_po,
    brute_po,
    brute_tau,
    enumerate_allocations,
    po_verdict,
    verify_certificate,
)
from .preprocess import (
    Constants,
    ItemClass,
    PerturbedInstance,
    choose_epsilon,
    classify_items,
    compute_constants,
    compute_eta,
    compute_lambda,
    compute_omega,
    normalize_mixed,
    perturb,
    restrict,
)
from .pricing import TieGraph, build_tie_graph, dual_prices, enumerate_opt, lp_objective
from .solver import SolveOptions, explain, generate_instance, solve

__version__ = "0.1.0"
