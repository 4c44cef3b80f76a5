"""Shared fixtures."""

from __future__ import annotations

import pytest

from heunlab import numeric


@pytest.fixture
def stepper_forms(monkeypatch):
    """The forms of the stepper that integrations run, in order.

    Steppers are built afresh for the test, each wrapped to append
    ``"float"`` or ``"complex"`` to the returned list when it runs: a float
    run that hands off is followed by a complex one.
    """
    log: list[str] = []
    build = numeric._build_stepper

    def logged(form, stepper):
        def run(*args):
            log.append(form)
            return stepper(*args)
        return run

    def spy(n):
        on_complex, on_floats = build(n)
        return logged("complex", on_complex), logged("float", on_floats)

    monkeypatch.setattr(numeric, "_STEPPERS", {})
    monkeypatch.setattr(numeric, "_build_stepper", spy)
    return log
