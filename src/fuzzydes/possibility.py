"""Exact lattice algebra on possibility values in [0, 1].

Possibility values are Fractions whose denominators divide 10**9 (at most
nine fractional digits in decimal form), so comparisons, min and max are
exact and independently parsed literals compare equal.  Fuzzy states are
tuples of such values; fuzzy events are named square matrices over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, ValidationError

Possibility = Fraction
State = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

PRECISION = 9
_SCALE = 10**PRECISION

ZERO = Fraction(0)
ONE = Fraction(1)


def as_possibility(value) -> Fraction:
    """Coerce a decimal literal, int, float, Decimal, or Fraction to an exact
    possibility value.

    Literals with more than nine fractional digits are rejected even when the
    value itself would be representable, so that file round-trips stay
    canonical.
    """
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, bool):
        raise ValidationError(f"not a possibility value: {value!r}")
    elif isinstance(value, int):
        frac = Fraction(value)
    elif isinstance(value, (str, float, Decimal)):
        text = repr(value) if isinstance(value, float) else str(value).strip()
        try:
            dec = Decimal(text)
        except InvalidOperation:
            raise ValidationError(f"malformed decimal: {text!r}") from None
        if not dec.is_finite():
            raise ValidationError(f"malformed decimal: {text!r}")
        exponent = dec.as_tuple().exponent
        if exponent < -PRECISION:
            raise ValidationError(
                f"more than {PRECISION} fractional digits: {text!r}"
            )
        frac = Fraction(dec)
    else:
        raise ValidationError(f"not a possibility value: {value!r}")
    if not ZERO <= frac <= ONE:
        raise ValidationError(f"possibility outside [0, 1]: {value!r}")
    if _SCALE % frac.denominator:
        raise ValidationError(
            f"not representable with {PRECISION} fractional digits: {value!r}"
        )
    return frac


def format_possibility(value: Fraction) -> str:
    """Render a possibility as its shortest exact decimal string."""
    scaled = value.numerator * (_SCALE // value.denominator)
    whole, frac = divmod(scaled, _SCALE)
    if frac == 0:
        return str(whole)
    digits = f"{frac:0{PRECISION}d}".rstrip("0")
    return f"{whole}.{digits}"


def make_state(values: Iterable) -> State:
    """Build a fuzzy state vector, coercing each component."""
    state = tuple(as_possibility(v) for v in values)
    if not state:
        raise ValidationError("a fuzzy state needs at least one component")
    return state


def format_state(state: State) -> str:
    return "[" + ",".join(format_possibility(v) for v in state) + "]"


def state_is_zero(state: State) -> bool:
    return all(v == ZERO for v in state)


@dataclass(frozen=True)
class FuzzyEvent:
    """A named fuzzy event: an n-by-n possibility matrix plus the floor below
    which a controller may not suppress the event."""

    name: str
    matrix: Matrix
    uc_degree: Fraction

    def __post_init__(self):
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix):
            raise DimensionMismatch(f"event {self.name!r}: matrix is not square")

    @property
    def dimension(self) -> int:
        return len(self.matrix)


def make_event(name: str, matrix: Sequence[Sequence], uc_degree=0) -> FuzzyEvent:
    """Build a fuzzy event, coercing matrix entries and the floor."""
    rows = tuple(tuple(as_possibility(v) for v in row) for row in matrix)
    return FuzzyEvent(str(name), rows, as_possibility(uc_degree))


def maxmin_compose(state: State, event: FuzzyEvent | Matrix) -> State:
    """Max-min composition of a state row vector with an event matrix:
    component j of the result is max over i of min(state[i], matrix[i][j])."""
    matrix = event.matrix if isinstance(event, FuzzyEvent) else event
    if len(state) != len(matrix):
        raise DimensionMismatch(
            f"state has {len(state)} components, matrix has {len(matrix)} rows"
        )
    return tuple(
        max(min(state[i], matrix[i][j]) for i in range(len(state)))
        for j in range(len(matrix))
    )


def scale_product(alpha: Fraction, state: State) -> State:
    """Scale a state by alpha: componentwise min(alpha, component)."""
    return tuple(min(alpha, v) for v in state)


@dataclass(frozen=True)
class ScaleSolution:
    """The set of alpha with scale_product(alpha, base) == target: the closed
    interval [lower, upper], empty when lower > upper.

    It is provably empty, a single point [t, t] with t < 1, or an upward
    interval [lower, 1]: a component with target < base pins alpha exactly;
    a component with target == base only bounds alpha from below; target >
    base is impossible.
    """

    lower: Fraction
    upper: Fraction

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    def restrict(self, floor: Fraction) -> "ScaleSolution":
        """Intersect with the upward interval [floor, 1]."""
        return ScaleSolution(max(self.lower, floor), self.upper)

    def least(self) -> Optional[Fraction]:
        """Least element of the set, or None when empty."""
        return None if self.is_empty else self.lower


def solve_scale(base: State, target: State) -> ScaleSolution:
    """Solve scale_product(alpha, base) == target for alpha in [0, 1]."""
    if len(base) != len(target):
        raise DimensionMismatch(
            f"base has {len(base)} components, target has {len(target)}"
        )
    lower, upper = ZERO, ONE
    for b, t in zip(base, target):
        if t > b:
            return ScaleSolution(ONE, ZERO)
        # Every component bounds alpha below by t; t < b also bounds it
        # above by t.
        if t > lower:
            lower = t
        if t != b and t < upper:
            upper = t
    return ScaleSolution(lower, upper)
