"""Exception hierarchy shared across the library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
verification failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SignalError(ReproError):
    """A signal-processing routine received unusable input."""


class NotFittedError(ReproError):
    """A model was used before being trained/fitted."""


class CaptureError(ReproError):
    """A sensor capture is missing data required by a verification stage."""


class ProtocolError(ReproError):
    """A client/server message failed to encode, decode, or validate."""


class ComponentTimeoutError(ReproError):
    """A verification component exceeded its per-job execution budget.

    Raised (as a stored :class:`JobResult` error, never across threads) by
    the serving-path scheduler when a component hangs: the request must
    degrade to a scored rejection instead of stalling the gateway.
    """


class SanitizerError(ReproError):
    """A runtime sanitizer caught a non-finite value in a guarded path.

    Only raised when sanitizing is enabled (``REPRO_SANITIZE=1`` or
    :func:`repro.analysis.sanitize.enable`); production builds never see
    this class.
    """


class LockOrderError(ReproError):
    """The lock-order harness observed locks acquired out of rank order."""
