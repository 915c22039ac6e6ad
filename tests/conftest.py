"""Shared fixtures: deterministic random data and catalog instantiation."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dolharm import (AlmostComplexCoframe, FrameTag, InvariantForm, MetricParams, QI,
                     catalog)
from dolharm.errors import SingularMatrixError
from dolharm.exterior import words_of_degree

# default parameters used whenever a test just needs "some" instance of an entry
DEFAULT_PARAMS = {
    "secondary_kodaira": {},
    "inoue_sm": {"alpha": 1, "beta": 1},
    "nilmanifold_I": {},
    "nilmanifold_II": {},
    "hyperelliptic_I": {},
    "hyperelliptic_II": {"t_re": Fraction(3, 10), "t_im": 0},
    "primary_kodaira_I": {"alpha": 1},
    "primary_kodaira_II": {"beta": 1},
}


def default_entries():
    return [catalog(name, **params) for name, params in DEFAULT_PARAMS.items()]


@pytest.fixture(scope="session")
def entries():
    return default_entries()


@pytest.fixture()
def rng():
    return random.Random(20240 + 1)


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3,
                  max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_positive_fraction(rng: random.Random, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(den, 3 * den)  # in [1, 3]
    return Fraction(num, den)


def random_metric(rng: random.Random) -> MetricParams:
    """A random valid metric: r, s in [1, 3], |u| < rs by construction."""
    r = rand_positive_fraction(rng)
    s = rand_positive_fraction(rng)
    bound = r * s / 2
    u = QI(rand_fraction(rng, -1, 1) * bound, rand_fraction(rng, -1, 1) * bound)
    return MetricParams.from_rs(r, s, u)


def random_coframe(rng: random.Random) -> AlmostComplexCoframe:
    """A random almost complex coframe: two rows of small Gaussian rationals."""
    while True:
        rows = [[QI(rand_fraction(rng), rand_fraction(rng)) for _ in range(4)]
                for _ in range(2)]
        try:
            return AlmostComplexCoframe.from_rows(rows)
        except SingularMatrixError:
            continue


def random_form(rng: random.Random, frame: FrameTag, degree: int,
                as_complex: bool = False) -> InvariantForm:
    coeffs = {}
    for word in words_of_degree(degree):
        if rng.random() < 0.25:
            continue
        c = QI(rand_fraction(rng), rand_fraction(rng))
        coeffs[word] = c.to_complex() if as_complex else c
    return InvariantForm.build(frame, degree, coeffs)


# -- acceptance summary --------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_criterion_" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::test_criterion_", 1)[1]
        _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"criterion {name}: {outcome}")
