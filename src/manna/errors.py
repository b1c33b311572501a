"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI lives in ``manna.cli``. The search for w*
is exact for at most 3 agents and has no unresolved outcome: more agents
is an :class:`InputError`, and running out of candidates a
:class:`SoundnessError`.
"""

from __future__ import annotations


class MannaError(Exception):
    """Base class for all package errors."""


class InputError(MannaError):
    """Malformed or out-of-contract input (bad matrix, bad bundle, bad flag)."""


class SizeGuardError(MannaError):
    """An enumeration would exceed the configured desk-scale guard."""


class DegeneracyError(MannaError):
    """A value-ratio or equality-graph cycle was detected.

    Carries the violating cycle as ``cycle``: an alternating
    (item, agent, item, agent, ...) node sequence.
    """

    def __init__(self, message: str, cycle: tuple | None = None):
        super().__init__(message)
        self.cycle = cycle


class SoundnessError(MannaError):
    """An invariant that the theory guarantees was observed to fail.

    Never expected on valid runs; indicates a corrupted state or a bug
    worth reporting together with the offending instance.
    """


class VerificationError(MannaError):
    """A certificate failed a structural precheck (digest, shape, formats)."""
