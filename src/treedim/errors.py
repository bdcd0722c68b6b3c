"""Exception types shared across the package."""


class TreedimError(Exception):
    """Base class for all package-specific errors."""


class TreeStructureError(TreedimError, ValueError):
    """A parent array does not describe a rooted tree.

    ``vertex`` identifies the first offending vertex when one exists.
    """

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


class NoRoot(TreeStructureError):
    """Every entry of the parent array is set: there is no root."""


class MultipleRoots(TreeStructureError):
    """More than one entry of the parent array is unset."""


class CycleDetected(TreeStructureError):
    """Following parent pointers from some vertex never reaches the root."""


class IndexOutOfRange(TreeStructureError):
    """A parent index falls outside ``0..n-1``."""


class TreeFormatError(TreedimError, ValueError):
    """Tree-file text does not follow the line-oriented format."""


class VertexOutOfRange(TreedimError, IndexError):
    """A vertex argument falls outside the tree."""


class TooLarge(TreedimError, ValueError):
    """Input exceeds the size cap of an exponential-time routine."""


class IsPath(TreedimError, ValueError):
    """The operation is defined for non-path trees only."""


class InvalidPmf(TreedimError, ValueError):
    """An offspring distribution violates its constraints."""


class InvalidParams(TreedimError, ValueError):
    """Growth-model or sampler parameters violate their constraints."""


class UnreachableSize(TreedimError, ValueError):
    """No tree of the requested size exists under the offspring support."""


class DomainError(TreedimError, ValueError):
    """Numeric argument outside the domain of a special function or evaluator."""


class Unsupported(TreedimError, ValueError):
    """Parameter combination outside the supported evaluation range."""
