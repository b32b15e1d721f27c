from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzydes import (
    ONE,
    ZERO,
    ValidationError,
    as_possibility,
    format_possibility,
    make_event,
    make_state,
    maxmin_compose,
    scale_product,
    solve_scale,
    state_is_zero,
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


class TestParsing:
    def test_same_literal_compares_equal(self):
        assert as_possibility("0.1") == as_possibility("0.10") == as_possibility(0.1)

    def test_min_max_return_an_operand(self):
        x, y = as_possibility("0.3"), as_possibility("0.7")
        assert min(x, y) is x and max(x, y) is y

    @pytest.mark.parametrize("bad", ["1.1", "-0.1", "0.1234567891", "abc", "nan", "inf"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            as_possibility(bad)

    def test_rejects_ten_digit_literal_even_when_representable(self):
        with pytest.raises(ValidationError):
            as_possibility("0.5000000000")

    def test_rejects_fraction_off_grid(self):
        with pytest.raises(ValidationError):
            as_possibility(Fraction(1, 3))

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
