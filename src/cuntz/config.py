"""Tunable defaults: resource caps and sweep depths."""

import contextlib
import os

from .errors import ConfigError, ResourceLimitError

# Environment variable overriding the default term cap for grown elements.
MAX_TERMS_ENV = "CUNTZ_MAX_TERMS"

DEFAULT_MAX_TERMS = 500_000

# Word-length bound used by the sampled condition sweeps.
DEFAULT_SWEEP_DEPTH = 2

# Largest order accepted by the closed-formula constructors.
DEFAULT_P_MAX_RFS = 6
DEFAULT_P_MAX_RPFS = 4

# Coordinate-space bound for exact rank computations.
DEFAULT_SPAN_BASIS_CAP = 65_536


# Term cap set by ``scoped_max_terms``; it takes the place of the environment
# variable while set.  ``cli.main`` sets it for the length of one command.
_scoped_max_terms = None


def max_terms_cap():
    """Current term cap: the scoped cap if one is set, else the environment
    variable if set, else the default."""
    if _scoped_max_terms is not None:
        return _scoped_max_terms
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigError(f"{MAX_TERMS_ENV} must be a positive integer, got {raw!r}")
    return value


def check_cap(count, operation, what="terms"):
    """Raise ResourceLimitError naming ``operation`` when ``count`` exceeds
    ``max_terms_cap()``."""
    cap = max_terms_cap()
    if count > cap:
        raise ResourceLimitError(count, cap, what=what, operation=operation)


def check_sweep(check, count):
    """The sweep budget: ``count`` candidates of the sweep ``check``, capped."""
    check_cap(count, f"sweep {check}", what="candidates")


@contextlib.contextmanager
def scoped_max_terms(cap):
    """Within the block, ``cap`` is the term cap in place of the environment
    variable; the previous cap is restored on exit."""
    global _scoped_max_terms
    saved = _scoped_max_terms
    _scoped_max_terms = cap
    try:
        yield
    finally:
        _scoped_max_terms = saved


def default_car_range(p):
    """Generator range for anticommutator sweeps: 8 for a single seed, 3p else."""
    return 8 if p <= 1 else 3 * p
