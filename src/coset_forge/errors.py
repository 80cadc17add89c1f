"""Error types raised across the package."""


class CosetForgeError(Exception):
    """Base class for all engine errors."""


class PoleAtNonPositiveInteger(CosetForgeError):
    def __init__(self, z):
        super().__init__(f"gamma argument {z} is a non-positive integer (within 1e-12)")
        self.z = z


class NonFiniteValue(CosetForgeError):
    pass


class MixedSpectralArguments(CosetForgeError):
    pass


class NonMeromorphicProduct(CosetForgeError):
    pass


class OutsideConvergenceStrip(CosetForgeError):
    def __init__(self, w, bound):
        super().__init__(f"w={w} outside absolute-convergence strip Im w < {bound}")
        self.w = w
        self.bound = bound


class QuadratureNonConvergent(CosetForgeError):
    pass


class NonTelescoping(CosetForgeError):
    """Series families of a contraction do not reduce to Gamma factors."""


class DivergenceMismatch(CosetForgeError):
    pass


class IllPosedContraction(CosetForgeError):
    """Integrand is worse than 1/t at t=0; the operator pair is invalid."""


class UnexpectedPole(CosetForgeError):
    def __init__(self, w0, detail=""):
        super().__init__(f"unexpected pole at w={w0} {detail}")
        self.w0 = w0


class ResidueMismatch(CosetForgeError):
    pass


class ExcludedLevel(CosetForgeError):
    pass


class InvalidOption(CosetForgeError):
    """A command-line value under which no relation could pass or the grid
    would check nothing."""


class NoRotationSector(CosetForgeError):
    """c-sector rotation was asked for, but the definition file names no
    rotation sector (`rotate_sector NAME;`)."""


class NothingToVerify(CosetForgeError):
    """A definition file declares no relation and no commutator_delta, so a
    verification run would pass without checking anything."""


class VanishingDenominator(CosetForgeError, ZeroDivisionError):
    """A k-expression's denominator vanishes at the level it is bound at."""


class NonConvergent(CosetForgeError):
    """Classical-limit fit did not reach the required convergence order."""


class ParseError(CosetForgeError):
    def __init__(self, line, col, expected, found=""):
        msg = f"parse error at {line}:{col}: expected {', '.join(sorted(expected))}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)
        self.line = line
        self.col = col
        self.expected = set(expected)
        self.found = found


class UndeclaredName(CosetForgeError):
    pass


class DuplicateName(CosetForgeError):
    pass
