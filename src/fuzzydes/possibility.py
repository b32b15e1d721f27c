"""Exact lattice algebra on possibility values in [0, 1].

Possibility values are Fractions whose denominators divide 10**9 (at most
nine fractional digits in decimal form), so comparisons, min and max are
exact and independently parsed literals compare equal.  Fuzzy states are
tuples of such values; fuzzy events are named square matrices over them.

Values are Fractions at the public edge and ints inside.  The algebra only
compares and takes min and max, so every analysis runs on the int code
k = v * 10**9 of each value, where comparison and hashing are native.  Each
public function encodes its arguments once (encode_value, encode_state) and
decodes its result once (decode_state) through a table of the values
already seen, so decoding builds no new Fraction per value.  The kernels
below (maxmin_compose, scale_product, solve_scale) serve both forms and
tell them apart by their operands.

Component j of q . a is max over i of min(q[i], M[i][j]), so q . a is the
componentwise maximum, over the nonzero q[i], of row i of M capped at q[i].
Each event keeps one table per row of its coded matrix, mapping a level v
to that row capped at v, filled on first use; a coded composition is then
one lookup per nonzero component and one componentwise max, where the
definition makes n*n min calls.  The all-zero state composes to zero.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

from ._record import Record
from .errors import DimensionMismatch, ValidationError

Possibility = Fraction
State = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Code = tuple[int, ...]  # an int-coded state

PRECISION = 9
_SCALE = 10**PRECISION

ZERO = Fraction(0)
ONE = Fraction(1)
# The bottom and top of each representation.
UNIT = (ZERO, ONE)
CODE_UNIT = (0, _SCALE)


def encode_value(value: Fraction) -> int:
    """The int code value * 10**9 of a possibility value."""
    if _SCALE % value.denominator:
        raise ValidationError(
            f"not representable with {PRECISION} fractional digits: {value!r}"
        )
    return value.numerator * (_SCALE // value.denominator)


def encode_state(state: State) -> Code:
    return tuple(map(encode_value, state))


@cache
def decode_value(code: int) -> Fraction:
    return Fraction(code, _SCALE)


def decode_state(code: Code) -> State:
    return tuple(map(decode_value, code))


# A plain decimal literal in [0, 1] with at most nine fractional digits: the
# form every document value takes, coded without Decimal or Fraction.
_PLAIN = re.compile(r"0(?:\.[0-9]{1,9})?|1(?:\.0{1,9})?")


def as_possibility(value) -> Fraction:
    """Coerce a decimal literal, int, float, Decimal, or Fraction to an exact
    possibility value.

    Literals with more than nine fractional digits are rejected even when the
    value itself would be representable, so that file round-trips stay
    canonical.
    """
    if type(value) is str and _PLAIN.fullmatch(value):
        whole, _, digits = value.partition(".")
        return decode_value(int(whole) * _SCALE + int(digits.ljust(PRECISION, "0")))
    return _exact_possibility(value)


def _exact_possibility(value) -> Fraction:
    """as_possibility for every input, through Decimal and Fraction; the
    plain-literal path above gives the same value."""
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
        if dec and dec.adjusted() > 0:
            # |value| >= 10: rejected before Fraction builds 10**exponent.
            raise ValidationError(f"possibility outside [0, 1]: {value!r}")
        frac = Fraction(dec)
    else:
        raise ValidationError(f"not a possibility value: {value!r}")
    if not 0 <= frac.numerator <= frac.denominator:
        raise ValidationError(f"possibility outside [0, 1]: {value!r}")
    if _SCALE % frac.denominator:
        raise ValidationError(
            f"not representable with {PRECISION} fractional digits: {value!r}"
        )
    return frac


def format_possibility(value: Fraction) -> str:
    """Render a possibility as its shortest exact decimal string."""
    return _format_code(value.numerator * (_SCALE // value.denominator))


@cache
def _format_code(code: int) -> str:
    whole, frac = divmod(code, _SCALE)
    digits = f"{frac:0{PRECISION}d}".rstrip("0")
    return f"{whole}.{digits}" if digits else str(whole)


def make_state(values: Iterable) -> State:
    """Build a fuzzy state vector, coercing each component."""
    state = tuple(as_possibility(v) for v in values)
    if not state:
        raise ValidationError("a fuzzy state needs at least one component")
    return state


def format_state(state: State) -> str:
    return "[" + ",".join(format_possibility(v) for v in state) + "]"


def state_is_zero(state: State) -> bool:
    return not any(state)


class FuzzyEvent(Record):
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

    @cached_property
    def coded_matrix(self) -> tuple[Code, ...]:
        return tuple(map(encode_state, self.matrix))

    @cached_property
    def coded_uc(self) -> int:
        return encode_value(self.uc_degree)

    @cached_property
    def _capped(self) -> tuple[dict[int, Code], ...]:
        """Per row of coded_matrix: level v -> the row capped at v."""
        return tuple({} for _ in self.matrix)


def make_event(name: str, matrix: Sequence[Sequence], uc_degree=0) -> FuzzyEvent:
    """Build a fuzzy event, coercing matrix entries and the floor."""
    rows = tuple(tuple(as_possibility(v) for v in row) for row in matrix)
    return FuzzyEvent(str(name), rows, as_possibility(uc_degree))


def maxmin_compose(state: State, event: FuzzyEvent | Matrix) -> State:
    """Max-min composition of a state row vector with an event matrix:
    component j of the result is max over i of min(state[i], matrix[i][j]).
    An int-coded state composes with a FuzzyEvent through the event's
    capped rows of its coded matrix (see the module docstring)."""
    matrix = event.matrix if isinstance(event, FuzzyEvent) else event
    if len(state) != len(matrix):
        raise DimensionMismatch(
            f"state has {len(state)} components, matrix has {len(matrix)} rows"
        )
    if matrix is event or type(state[0]) is not int:
        return tuple([max(map(min, state, column)) for column in zip(*matrix)])
    rows = [
        table.get(v) or table.setdefault(v, tuple([min(v, m) for m in row]))
        for table, row, v in zip(event._capped, event.coded_matrix, state) if v
    ]
    return tuple(map(max, *rows)) if len(rows) > 1 else rows[0] if rows else (0,) * len(state)


def scale_product(alpha: Fraction, state: State) -> State:
    """Scale a state by alpha: componentwise min(alpha, component)."""
    return tuple(min(alpha, v) for v in state)


class ScaleSolution(Record):
    """The set of alpha with scale_product(alpha, base) == target: the closed
    interval [lower, upper], empty when lower > upper.

    It is provably empty, a single point [t, t] with t < 1, or an upward
    interval [lower, 1]: a component with target < base pins alpha exactly;
    a component with target == base only bounds alpha from below; target >
    base is impossible.
    """

    lower: Fraction
    upper: Fraction

    def __init__(self, lower: Fraction, upper: Fraction):
        # Built once per solve_scale call: set the two fields directly.
        values = self.__dict__
        values["lower"] = lower
        values["upper"] = upper

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
    """Solve scale_product(alpha, base) == target for alpha in [0, 1], over
    codes when the target's components are int codes, else over values."""
    if len(base) != len(target):
        raise DimensionMismatch(
            f"base has {len(base)} components, target has {len(target)}"
        )
    unit = CODE_UNIT if target and type(target[0]) is int else UNIT
    lower, upper = unit
    for b, t in zip(base, target):
        if t > b:
            return ScaleSolution(unit[1], unit[0])
        # Every component bounds alpha below by t; t < b also bounds it
        # above by t.
        if t > lower:
            lower = t
        if t != b and t < upper:
            upper = t
    return ScaleSolution(lower, upper)
