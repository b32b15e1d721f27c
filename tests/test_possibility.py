import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzydes import (
    ONE,
    ZERO,
    DimensionMismatch,
    ValidationError,
    as_possibility,
    format_possibility,
    make_event,
    make_state,
    maxmin_compose,
    parse_spec,
    run_command,
    scale_product,
    solve_scale,
    state_is_zero,
)
from fuzzydes.possibility import (
    CODE_UNIT,
    _exact_possibility,
    decode_state,
    decode_value,
    encode_state,
    encode_value,
)

S = lambda text: make_state(text.split())

possibilities = st.integers(0, 20).map(lambda k: Fraction(k, 20))
states = st.lists(possibilities, min_size=1, max_size=4).map(tuple)


def event_for(state_dim):
    return st.lists(
        st.lists(possibilities, min_size=state_dim, max_size=state_dim),
        min_size=state_dim,
        max_size=state_dim,
    ).map(lambda rows: make_event("e", rows))


def outcome(coerce, text):
    """The value coerce gives text, or the message it rejects text with."""
    try:
        return "value", coerce(text)
    except ValidationError as exc:
        return "error", str(exc)


# Strings in and around the plain literal grammar 0, 1, 0.d... and 1.0...
literal_texts = st.one_of(
    st.from_regex(r"[01](\.[0-9]{0,11})?", fullmatch=True),
    st.text(alphabet="0123456789.-+eE _", max_size=14),
    st.text(max_size=6),
)


class TestParsing:
    def test_same_literal_compares_equal(self):
        assert as_possibility("0.1") == as_possibility("0.10") == as_possibility(0.1)

    def test_min_max_return_an_operand(self):
        x, y = as_possibility("0.3"), as_possibility("0.7")
        assert min(x, y) is x and max(x, y) is y

    @pytest.mark.parametrize(
        "bad", ["1.1", "-0.1", "0.1234567891", "abc", "nan", "inf", "1e999999999", "-1e999999999",
                ["0.5"], None, {"value": "0.5"}]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            as_possibility(bad)

    def test_rejects_ten_digit_literal_even_when_representable(self):
        with pytest.raises(ValidationError):
            as_possibility("0.5000000000")

    def test_rejects_fraction_off_grid(self):
        with pytest.raises(ValidationError):
            as_possibility(Fraction(1, 3))

    def test_make_state_rejects_the_empty_vector(self):
        with pytest.raises(ValidationError, match="at least one component"):
            make_state([])

    @given(literal_texts)
    @example("0.123456789")
    @example("1.000000000")
    @example("1.0000000000")
    @example("0.1234567890")
    @example("1.000000001")
    @example("0.")
    @example(" 0.5")
    @example("0.5\n")
    @example("\u0660.5")  # ARABIC-INDIC DIGIT ZERO, which Decimal reads as 0
    @example("0.\u0665")
    @example("9e999999999")
    @example("0e999999999")
    def test_plain_literals_agree_with_the_exact_path(self, text):
        fast, exact = outcome(as_possibility, text), outcome(_exact_possibility, text)
        assert fast == exact
        assert fast[0] == "error" or type(fast[1]) is Fraction

    @pytest.mark.parametrize(
        "text,shown",
        [("0.5", "0.5"), ("0.50", "0.5"), ("1", "1"), ("0", "0"), ("0.123456789", "0.123456789")],
    )
    def test_format_roundtrip(self, text, shown):
        value = as_possibility(text)
        assert format_possibility(value) == shown
        assert as_possibility(format_possibility(value)) == value


class TestCompose:
    def test_worked_example_step(self, treatment_plant):
        a = treatment_plant.event("a")
        assert maxmin_compose(S("0.9 0.1 0"), a) == S("0.1 0.9 0.1")

    def test_self_loop_event(self, treatment_plant):
        d = treatment_plant.event("d")
        assert maxmin_compose(S("0.9 0.1 0"), d) == S("0.9 0.1 0")

    def test_identity_matrix_fixes_every_state(self):
        identity = make_event("i", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for q in (S("0.9 0.1 0"), S("0.3 0.3 0.3"), S("0 0 1")):
            assert maxmin_compose(q, identity) == q


class TestScaleProduct:
    def test_unit_scale_is_identity(self):
        q = S("0.9 0.1 0")
        assert scale_product(ONE, q) == q

    def test_low_scale_flattens(self):
        assert scale_product(as_possibility("0.1"), S("0.9 0.1 0.1")) == S("0.1 0.1 0.1")

    def test_componentwise(self):
        assert scale_product(as_possibility("0.5"), S("0.1 0.9 0.1")) == S("0.1 0.5 0.1")


def sweep_alphas(base, target):
    """All alpha on the breakpoint grid of the two vectors, plus midpoints
    between adjacent breakpoints, that solve the scale equation."""
    points = sorted(set(base) | set(target) | {ZERO, ONE})
    probes = set(points)
    for lo, hi in zip(points, points[1:]):
        probes.add((lo + hi) / 2)
    return {alpha for alpha in probes if scale_product(alpha, base) == target}


def contains(solution, alpha):
    return solution.lower <= alpha <= solution.upper


class TestSolveScale:
    def test_equal_vectors_force_upward_interval(self):
        solution = solve_scale(S("0.9 0.1 0"), S("0.9 0.1 0"))
        assert (solution.lower, solution.upper) == (as_possibility("0.9"), ONE)

    def test_forced_point(self):
        solution = solve_scale(S("0.9 0.1 0"), S("0.5 0.1 0"))
        half = as_possibility("0.5")
        assert (solution.lower, solution.upper) == (half, half)

    def test_conflicting_points_are_empty(self):
        assert solve_scale(S("0.9 0.1 0"), S("0.5 0.05 0")).is_empty

    def test_vectors_of_different_lengths_are_rejected(self):
        with pytest.raises(DimensionMismatch, match="base has 3 components, target has 2"):
            solve_scale(S("0.9 0.1 0"), S("0.9 0.1"))

    @given(states, st.lists(possibilities, min_size=1, max_size=4))
    def test_matches_breakpoint_sweep(self, base, alphas):
        # Construct targets as actual scalings plus arbitrary vectors.
        targets = [scale_product(a, base) for a in alphas]
        targets.append(tuple(alphas[: len(base)] + [ZERO] * (len(base) - len(alphas))))
        for target in targets:
            if len(target) != len(base):
                continue
            solution = solve_scale(base, target)
            swept = sweep_alphas(base, target)
            for alpha in swept:
                assert contains(solution, alpha)
            if solution.is_empty:
                assert not swept
            elif solution.upper == ONE:  # upward interval [lower, 1]
                assert solution.lower in swept and ONE in swept
            else:  # a single point below 1
                assert solution.lower == solution.upper
                assert swept == {solution.lower}

    @given(states, possibilities)
    def test_solutions_are_sound(self, base, alpha):
        target = scale_product(alpha, base)
        solution = solve_scale(base, target)
        assert contains(solution, alpha)
        least = solution.least()
        assert scale_product(least, base) == target


class TestAlgebraProperties:
    @given(possibilities, possibilities, states)
    def test_scaling_composes_through_min(self, a, b, q):
        assert scale_product(min(a, b), q) == scale_product(a, scale_product(b, q))

    @given(st.data(), states, possibilities)
    def test_scale_commutes_with_composition(self, data, q, alpha):
        event = data.draw(event_for(len(q)))
        assert scale_product(alpha, maxmin_compose(q, event)) == maxmin_compose(
            scale_product(alpha, q), event
        )

    @given(st.data(), states)
    def test_composition_is_monotone(self, data, q):
        event = data.draw(event_for(len(q)))
        other = data.draw(st.lists(possibilities, min_size=len(q), max_size=len(q)))
        smaller = tuple(min(x, y) for x, y in zip(q, other))
        left = maxmin_compose(smaller, event)
        right = maxmin_compose(q, event)
        assert all(x <= y for x, y in zip(left, right))

    @given(st.data(), states, possibilities)
    def test_outputs_reuse_input_values(self, data, q, alpha):
        event = data.draw(event_for(len(q)))
        pool = set(q) | {alpha} | {v for row in event.matrix for v in row}
        for component in maxmin_compose(q, event):
            assert component in pool
        for component in scale_product(alpha, q):
            assert component in pool


# The possibility literal grammar as it stands: each literal with its value,
# or None where it is rejected.  A parser change must keep every row.
LITERALS = [
    ("1E0", Fraction(1)),
    ("+0.5", Fraction(1, 2)),
    ("-0", Fraction(0)),
    (" 0.5 ", Fraction(1, 2)),
    ("0.5e-8", Fraction(1, 200_000_000)),
    ("1e-10", None),
    ("NaN", None),
    ("Infinity", None),
    ("0x1", None),
    ("\u0661", Fraction(1)),  # ARABIC-INDIC DIGIT ONE
    ("\uff15", None),  # FULLWIDTH DIGIT FIVE
    ("1_0", None),
    ("0.1234567890", None),
    ("1.000000000", Fraction(1)),
    ("0.", Fraction(0)),
    (".5", Fraction(1, 2)),
    ("True", None),
    ("2", None),
    (0.1, Fraction(1, 10)),
    (True, None),
]


class TestLiteralGrammar:
    @pytest.mark.parametrize("literal, value", LITERALS)
    def test_accept_reject_and_value(self, literal, value, tmp_path):
        spec = json.dumps({"kind": "state_set", "states": [[literal]]})
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({
            "n": 1, "state_labels": ["s"], "initial": ["1"],
            "events": [{"name": "a", "uncontrollable_degree": literal, "matrix": [["1"]]}],
        }))
        code = run_command(["simulate", "--automaton", str(plant), "--steps", "0", "--out",
                            str(tmp_path / "out.txt")])
        if value is None:
            with pytest.raises(ValidationError):
                as_possibility(literal)
            with pytest.raises(ValidationError):
                parse_spec(spec)
            assert code == 2
        else:
            parsed = as_possibility(literal)
            assert type(parsed) is Fraction and parsed == value
            assert parse_spec(spec).states == ((value,),)
            assert code == 0


nine_digit = st.integers(0, 10**9).map(lambda k: Fraction(k, 10**9))
# Every denominator 2**a * 5**b that divides 10**9, with its extreme numerators.
POWER_DENOMINATORS = [
    Fraction(k, 2**a * 5**b)
    for a in range(10)
    for b in range(10)
    for k in (1, 2**a * 5**b - 1)
]


class TestCodec:
    @given(nine_digit, nine_digit)
    @example(Fraction(1, 10**9), Fraction(999_999_999, 10**9))
    @example(Fraction(1, 512), Fraction(1, 1_953_125))
    @example(ZERO, ONE)
    def test_round_trip_and_order(self, v, w):
        for x in (v, w):
            back = decode_value(encode_value(x))
            assert type(back) is Fraction and back == x
        assert (v < w) == (encode_value(v) < encode_value(w))
        assert (v == w) == (encode_value(v) == encode_value(w))
        assert decode_state(encode_state((v, w))) == (v, w)

    def test_every_power_denominator_round_trips(self):
        codes = [encode_value(v) for v in POWER_DENOMINATORS]
        assert [decode_value(k) for k in codes] == POWER_DENOMINATORS
        assert sorted(codes) == [encode_value(v) for v in sorted(POWER_DENOMINATORS)]
        assert (encode_value(ZERO), encode_value(ONE)) == CODE_UNIT

    @pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(1, 2**10), Fraction(1, 10**10)])
    def test_values_off_the_nine_digit_grid_are_rejected(self, value):
        with pytest.raises(ValidationError):
            encode_value(value)

    def test_decoding_looks_values_up(self):
        assert decode_value(123_000_000) is decode_value(123_000_000)

    @given(states.flatmap(lambda q: st.tuples(st.just(q), event_for(len(q)), possibilities)))
    # alpha = 1 scales onto the composition itself: the one case whose
    # solution reaches the top of the representation.
    @example((S("0.5 0.25"), make_event("e", [["1", "0"], ["0", "1"]]), ONE))
    def test_kernels_commute_with_the_codec(self, case):
        q, ev, alpha = case
        coded = encode_state(q)
        composed = maxmin_compose(q, ev)
        assert decode_state(maxmin_compose(coded, tuple(map(encode_state, ev.matrix)))) == composed
        scaled = scale_product(alpha, composed)
        assert decode_state(scale_product(encode_value(alpha), encode_state(composed))) == scaled
        want = solve_scale(composed, scaled)
        got = solve_scale(encode_state(composed), encode_state(scaled))
        assert (decode_value(got.lower), decode_value(got.upper)) == (want.lower, want.upper)


# Nine-digit codes: mostly zeros and grid values, with off-grid values such
# as 0.123456789 mixed in.
codes = st.one_of(
    st.just(0),
    st.integers(0, 10).map(lambda k: k * 10**8),
    st.integers(0, 10**9),
)


@st.composite
def coded_cases(draw):
    """(coded state, coded rows) for n from 1 to 8; the state is often all
    zero or has a single nonzero component."""
    n = draw(st.integers(1, 8))
    rows = tuple(tuple(draw(codes) for _ in range(n)) for _ in range(n))
    shape = draw(st.sampled_from(("any", "zero", "single")))
    if shape == "zero":
        state = (0,) * n
    elif shape == "single":
        k, value = draw(st.integers(0, n - 1)), draw(st.integers(1, 10**9))
        state = tuple(value if i == k else 0 for i in range(n))
    else:
        state = tuple(draw(codes) for _ in range(n))
    return state, rows


def compose_by_definition(state, rows):
    """Component j is max over i of min(state[i], rows[i][j])."""
    n = len(state)
    return tuple(max(min(state[i], rows[i][j]) for i in range(n)) for j in range(n))


class TestCappedRows:
    """A coded state composes with a FuzzyEvent through the event's capped
    rows; the result must be the definition's, cold and warm."""

    @given(coded_cases())
    @example(((0, 0), ((10**9, 5 * 10**8), (0, 10**9))))
    @example(((123_456_789,), ((987_654_321,),)))
    @example(((0, 7 * 10**8, 0), ((10**9,) * 3, (1, 2, 3), (10**9,) * 3)))
    def test_matches_the_definition_cold_and_warm(self, case):
        state, rows = case
        ev = make_event("e", [[decode_value(v) for v in row] for row in rows])
        want = compose_by_definition(state, rows)
        assert ev.coded_matrix == rows
        assert maxmin_compose(state, ev) == want
        assert maxmin_compose(state, ev) == want
        # A plain coded matrix and the Fraction form take the definition.
        assert maxmin_compose(state, rows) == want
        assert maxmin_compose(decode_state(state), ev) == decode_state(want)

    def test_tables_fill_once_per_row_and_level(self):
        ev = make_event("e", [["1", "0.5"], ["0", "1"]])
        for _ in range(3):
            assert maxmin_compose((300_000_000, 0), ev) == (300_000_000, 300_000_000)
        assert ev._capped == ({300_000_000: (300_000_000, 300_000_000)}, {})

    def test_dimension_is_checked_before_the_tables(self):
        ev = make_event("e", [["1", "0"], ["0", "1"]])
        with pytest.raises(DimensionMismatch):
            maxmin_compose((1,), ev)
