"""Shared fixtures."""

from __future__ import annotations

import functools

import pytest

from heunlab import numeric


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
