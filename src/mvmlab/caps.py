"""Size caps, overridable through MVMLAB_CAP_* environment variables."""

import os

from .errors import BadArgument, CapExceeded

_DEFAULTS = {
    "PRODUCT": 64,      # product size
    "ENUM_CHAIN": 9,    # chain enumeration
    "ENUM_LATTICE": 6,  # enumeration over a fixed non-chain lattice
    "DOWNSET": 12,      # downset lattice of a poset
    "REPEAT": 10_000,   # scalar prefix or exponent in parsed text
    "ASSIGNMENTS": 2 ** 24,  # n**nv assignments an equation is checked on
}


def check(name, measured, what):
    """Raise CapExceeded when the measured `what` exceeds cap `name`."""
    var = f"MVMLAB_CAP_{name}"
    env = os.environ.get(var)
    try:
        limit = _DEFAULTS[name] if env is None else int(env)
    except ValueError:
        raise BadArgument(f"{var} must be an integer, got {env!r}") from None
    if measured > limit:
        raise CapExceeded(f"{what} is {measured}, above the cap {limit} "
                          f"({var})")
