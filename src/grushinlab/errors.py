"""Exception hierarchy shared by every module of the library."""


class GrushinLabError(Exception):
    """Base class for all library errors; ``str`` is the message (``args[0]``)
    alone, whatever structured fields follow it in ``args``."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


class DimensionMismatch(GrushinLabError):
    """Argument or block shapes are incompatible."""


class SingularMatrix(GrushinLabError):
    """A direct solve hit a matrix that is singular at the rank tolerance."""


class ConvergenceFailure(GrushinLabError):
    """An iterative decomposition (SVD/eigenvalue QR) did not converge."""


class NonConvergent(GrushinLabError):
    """Quadrature doubling hit its node cap; args carry the last two estimates
    (arrays, when several integrals share the nodes), also read as
    ``estimates``."""

    @property
    def estimates(self) -> tuple:
        return self.args[1:]


class IllPosed(GrushinLabError):
    """Bordered system is singular or its condition estimate exceeds the well-posedness
    threshold; args carry the offending estimate, also read as ``condition`` (None if not given)."""

    @property
    def condition(self) -> float | None:
        return self.args[1] if len(self.args) > 1 else None


class EffectiveSingular(GrushinLabError):
    """The effective Hamiltonian block fails the rank tolerance."""


class CornerSingular(GrushinLabError):
    """The lower-right block of a two-by-two split is not invertible."""


class RankAmbiguous(GrushinLabError):
    """A singular value sits inside the tolerance band, so the numerical rank
    (and anything integer-valued derived from it) is not well defined."""


class TransferSingular(GrushinLabError):
    """The border-transfer system is not invertible: the new problem is ill
    posed; args carry the message and the transfer system's condition
    estimate."""


class InnerSingular(GrushinLabError):
    """The inner system of an iterated bordered problem is not invertible;
    args carry the message and the inner system's condition estimate."""


class ComplementSingular(GrushinLabError):
    """The complementary diagonal block is singular at the requested point."""


class OutsideConvergenceRegime(GrushinLabError):
    """Series parameters violate the convergence assumptions."""


class BasisNotOrthonormal(GrushinLabError):
    """Supplied basis columns are not orthonormal at tolerance."""


class ContractionViolated(GrushinLabError):
    """The contraction norm is >= 1, so the Neumann series does not converge."""


class DegenerateLeadingMatrix(GrushinLabError):
    """Leading perturbation coefficients coincide; the asymptotics need them distinct."""


class ThresholdOnSingularValue(GrushinLabError):
    """A singular value sits on the projector threshold; the captured dimension
    is not well defined."""


class OnSpectrum(GrushinLabError):
    """The probe point is an eigenvalue at tolerance; the resolvent does not exist."""


class _NodeError(GrushinLabError):
    """A failure at one quadrature node; args carry the message and the node
    (z, or t on a loop), also read as ``node``."""

    @property
    def node(self) -> complex | float | None:
        return self.args[1] if len(self.args) > 1 else None


class OnContourSingular(_NodeError):
    """A quadrature node hit (or nearly hit) the spectrum."""


class NonInteger(GrushinLabError):
    """A counting integral did not land on an integer within tolerance."""


class IllPosedOnContour(_NodeError):
    """The bordered problem is ill posed at some quadrature node."""


class IllPosedInside(IllPosedOnContour):
    """The bordered matrix is singular somewhere inside the contour, so the
    effective count misses its zeros; args carry the number of zeros of its
    determinant inside, and ``node`` is None."""

    node = None


class SingularAtNode(_NodeError):
    """A loop-family value is singular at a quadrature node."""


class ContractionCertificateFails(GrushinLabError):
    """A sampled homotopy certificate contains a non-invertible system."""


class NeumannEigenvalue(GrushinLabError):
    """The shift coincides with a discrete Neumann eigenvalue."""


class ConsistencyError(GrushinLabError):
    """Two routes that must agree by exact algebra disagreed beyond tolerance."""


class IoFailure(GrushinLabError):
    """A report could not be written, or an input file could not be read."""
