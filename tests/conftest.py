from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import settings

from manna.model import Instance
from manna.preprocess import Constants, PerturbedInstance

# Property tests draw the same examples on every run, and a slow machine
# cannot fail them on time.
settings.register_profile("manna", derandomize=True, deadline=None)
settings.load_profile("manna")

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def e1() -> Instance:
    """Two agents, one good and one chore: v0=(4,-2), v1=(3,-1)."""
    return Instance.from_rows([[4, -2], [3, -1]])


@pytest.fixture
def ebar(e1) -> PerturbedInstance:
    """Hand-perturbed version of e1 used for worked pricing numbers.

    Values ((31/8, -17/8, 1/2), (23/8, -9/8, 1/2)); eta = 1/31.
    """
    consts = Constants(
        lam=F(1), omega=F(1), omega_exact=True, epsilon=F(1, 8), eta=F(1, 31), value_cap=F(4)
    )
    return PerturbedInstance(
        base=e1,
        pvalues=((F(31, 8), F(-17, 8), F(1, 2)), (F(23, 8), F(-9, 8), F(1, 2))),
        constants=consts,
        seed=0,
    )


@pytest.fixture
def disjoint_support() -> PerturbedInstance:
    """v0=(1,0,1/2), v1=(0,1,1/2): symmetric, common point at (1/2,1/2)."""
    base = Instance.from_rows([[1, 0], [0, 1]])
    consts = Constants(
        lam=F(1), omega=F(1), omega_exact=True, epsilon=F(1, 16), eta=F(1, 12), value_cap=F(1)
    )
    return PerturbedInstance(
        base=base,
        pvalues=((F(1), F(0), F(1, 2)), (F(0), F(1), F(1, 2))),
        constants=consts,
        seed=0,
    )


def make_chain_fixture(
    alpha: int = 6, beta: int = 5, rho: int = 2, q1: int = 4, q2: int = 5
) -> tuple[PerturbedInstance, tuple[F, ...], F]:
    """Three-agent path fixture whose first threshold member is deficient.

    Tie chain 0 - item1 - 2 - item2 - 1 at equal weights; agent 2 needs
    both tie items to reach the threshold, so the lexicographically
    first threshold allocation leaves it deficient and the augmenting
    route has real work to do. Requires alpha + q1 == beta + q2 and
    rho + max(q1, q2) < alpha + q1 <= rho + q1 + q2.
    """
    assert alpha + q1 == beta + q2
    assert rho + max(q1, q2) < alpha + q1 <= rho + q1 + q2
    assert rho >= 2 and min(q1, q2, beta, alpha) >= 2
    rows = (
        (alpha, q1, 1, min(rho, 1), 1),
        (1, 1, q2, min(rho, 1), beta),
        (1, q1, q2, rho, 1),
    )
    base = Instance(3, 4, tuple(tuple(F(v) for v in row[:4]) for row in rows))
    consts = Constants(
        lam=F(1), omega=F(1), omega_exact=True, epsilon=F(1, 100), eta=F(1, 10), value_cap=F(alpha)
    )
    p = PerturbedInstance(
        base=base,
        pvalues=tuple(tuple(F(v) for v in row) for row in rows),
        constants=consts,
        seed=0,
    )
    w = (F(1, 3), F(1, 3), F(1, 3))
    return p, w, F(1, 10)


@pytest.fixture
def chain_fixture():
    return make_chain_fixture()
