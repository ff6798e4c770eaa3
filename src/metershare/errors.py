"""Exception types shared across the package."""


class MeterShareError(Exception):
    """Base class for all protocol-level errors."""


class ZeroInverse(MeterShareError):
    """Multiplicative inverse of zero was requested."""


class EncodingOverflow(MeterShareError):
    """A reading does not fit the field under the requested scale."""


class InvalidParams(MeterShareError):
    """Sharing parameters violate t >= 1, n >= 2t+1 or n <= 255."""


class InsufficientShares(MeterShareError):
    """Fewer shares available than the polynomial degree requires."""


class InconsistentShares(MeterShareError):
    """Provided shares do not lie on a single polynomial of the expected degree."""


class PartyMismatch(MeterShareError):
    """Duplicate or out-of-range party index in a share set."""


class DegreeMismatch(MeterShareError):
    """Shares of different polynomial degrees were combined."""


class TooManyFailures(MeterShareError):
    """Marking another party failed would leave fewer than t+1 alive."""


class LengthMismatch(MeterShareError):
    """Inputs that must have one length do not: bit vectors compared,
    rows permuted, or the combinations of one ``lincomb_batch``."""


class UnknownSupplier(MeterShareError):
    """A meter references a supplier that is not in the public registry."""


class OpenedIdInvalid(MeterShareError):
    """A supplier ID opened during routing matches no registered supplier."""


class VectorLengthMismatch(MeterShareError):
    """A one-hot tuple has the wrong number of entries."""


class IdOverflow(MeterShareError):
    """A supplier ID does not fit the configured bit width."""


class ScenarioError(MeterShareError):
    """Scenario configuration failed validation."""


class UnknownRow(MeterShareError):
    """No closed-form cost expression exists for the requested protocol/segment."""
