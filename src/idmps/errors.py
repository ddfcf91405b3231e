"""Exception types shared across the package.

Each exception marks the violation of one documented precondition or
invariant, so callers (in particular the command-line layer) can map
failure classes to exit codes without string matching.
"""


class IdmpsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(IdmpsError):
    """Data length or matrix shape disagrees with the declared shape."""


class EmptyShape(IdmpsError):
    """A tensor shape with zero axes was supplied."""


class CutOutOfRange(IdmpsError):
    """Bipartition cut index outside 1..N-1."""


class ConvergenceFailure(IdmpsError):
    """The underlying singular value factorization did not converge."""


class KeepOutOfRange(IdmpsError):
    """Retained-value count outside 0..len(s)."""


class ZeroState(IdmpsError):
    """An operation that needs a nonzero state received the zero vector."""


class CenterOutOfRange(IdmpsError):
    """Mixed-canonical center outside 1..N-1."""


class DimChainBroken(IdmpsError):
    """Adjacent site tensors disagree on their shared bond dimension."""


class FormMismatch(IdmpsError):
    """The state does not carry the canonical form the operation expects."""


class PolicyEmpty(IdmpsError):
    """A truncation policy with neither a bond cap nor a weight tolerance."""


class IndexOutOfRange(IdmpsError):
    """Physical or lane index outside its valid range."""


class LengthMismatch(IdmpsError):
    """Vector length does not match the bond dimension it contracts with."""


class DegreeTooLarge(IdmpsError):
    """Hermite degree beyond the documented stability bound."""


class InsufficientNodes(IdmpsError):
    """Too few quadrature nodes for the requested polynomial degree."""


class TooLarge(IdmpsError):
    """An array would hold more than ``MAX_ENTRIES`` entries."""


class FileFormatError(IdmpsError):
    """A tensor or MPS file does not follow the documented JSON layout."""
