"""Exception types shared across the package."""


class CuspAtlasError(Exception):
    """Base class for every error raised by this package."""


class InvalidPartition(CuspAtlasError, ValueError):
    """A partition violates the size or parity rules of its group."""


class InvalidParameter(CuspAtlasError, ValueError):
    """A Jordan-block datum violates the discrete-parameter rules."""


class DomainMismatch(CuspAtlasError, ValueError):
    """A sign character was evaluated against the wrong generator set."""


class NormalizationError(CuspAtlasError, ValueError):
    """An inertial triple is not in the normalized form the tables assume."""


class BoundExceeded(CuspAtlasError, ValueError):
    """An enumeration request is larger than the configured bound."""


class InternalCheckError(CuspAtlasError, RuntimeError):
    """A cross-check that is a theorem failed; this indicates a bug.

    The two independent computation routes (closed formulas versus normal
    forms, direct supports versus rewriting maps) must agree.  Divergence is
    never ignored: it is surfaced through this exception, or, for the two
    support routes, as a failed `routes_agree` in `check_support`.
    """


class SchemaError(CuspAtlasError, ValueError):
    """A job document does not match the input schema.

    Carries a JSON-pointer path to the offending location.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")
