"""Shared fixtures."""

from __future__ import annotations

import functools

import pytest

from heunlab import matching, numeric, painleve

#: The constructors of the paper's symbolic data that keep their results
#: for the life of the process (``painleve.symbolic_cache``).
CONSTRUCTORS = (matching.matching_case, painleve.hamiltonian, painleve.painleve_rhs,
                painleve.kappa_constant, painleve.build_painleve_linear)


@pytest.fixture
def cold_constructors():
    """Empties every constructor cache before the test and returns the constructors.

    Work counted in a test then does not depend on which tests ran before it.
    """
    for constructor in CONSTRUCTORS:
        constructor.cache_clear()
    return CONSTRUCTORS


@pytest.fixture
def stepper_forms(monkeypatch):
    """The forms of the stepper that integrations run, in order.

    Steppers are built afresh for the test, each wrapped to append
    ``"float"`` or ``"complex"`` to the returned list when it runs: a float
    run that hands off is followed by a complex one.  A fresh stepper binds
    the module constants (``_MAX_STEPS``) as the test has set them.
    """
    log: list[str] = []
    build = numeric._generate_stepper.__wrapped__

    @functools.cache
    def spy(n, number):
        stepper = build(n, number)

        def run(*args):
            log.append(number.__name__)
            return stepper(*args)
        return run

    monkeypatch.setattr(numeric, "_generate_stepper", spy)
    return log
