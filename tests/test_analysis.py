import math
from fractions import Fraction

import pytest

from bcsim.analysis import (
    ModelError,
    monte_carlo_single_set,
    p_avg,
    p_correct,
)


def test_p_correct_max_size():
    # B = B_max: (0*p + 1 + 64*(1-p)) / 65 with p=0.5 -> 33/65
    assert p_correct(192, 256, 256, 0.5) == pytest.approx(33 / 65)


def test_p_correct_min_size():
    # B = B_min: (64*p + 1 + 0) / 65 with p=0.5 -> (64*0.5 + 1)/65
    assert p_correct(192, 256, 192, 0.5) == pytest.approx((64 * 0.5 + 1) / 65)


def test_p_correct_perfect_attacker_at_min():
    assert p_correct(192, 256, 192, 1.0) == pytest.approx(1.0)


def test_p_correct_degenerate_range():
    assert p_correct(100, 100, 100, 0.3) == pytest.approx(1.0)


def test_p_correct_rejects_out_of_range():
    with pytest.raises(ModelError):
        p_correct(192, 256, 191, 0.5)
    with pytest.raises(ModelError):
        p_correct(256, 192, 200, 0.5)
    with pytest.raises(ModelError):
        p_correct(192, 256, 200, 1.5)


def test_p_avg_reference_values():
    assert p_avg(192, 256) == pytest.approx(0.5077, abs=5e-5)
    assert p_avg(128, 256) == pytest.approx(0.5039, abs=5e-5)
    assert p_avg(64, 256) == pytest.approx(0.5026, abs=5e-5)


def test_p_avg_closed_form():
    for lo, hi in [(192, 256), (128, 256), (64, 256), (1, 2), (7, 7)]:
        span = hi - lo + 1
        assert p_avg(lo, hi) == pytest.approx(0.5 + 1 / (2 * span), abs=1e-12)


def test_p_avg_independent_of_attacker_skill():
    """Averaged over sizes, the p and (1-p) branches cancel exactly."""
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        vals = [p_correct(192, 256, b, p) for b in range(192, 257)]
        assert sum(vals) / len(vals) == pytest.approx(p_avg(192, 256), abs=1e-12)


def test_p_correct_affine_in_size():
    vals = [p_correct(64, 256, b, 0.9) for b in range(64, 257)]
    diffs = {round(vals[i + 1] - vals[i], 15) for i in range(len(vals) - 1)}
    assert len(diffs) == 1
    # A skilled attacker (p > 0.5) does best at the minimum size, where
    # the next drawn size almost always lands above the current one.
    assert vals[0] > vals[-1]


def test_monte_carlo_degenerate_range_exact():
    res = monte_carlo_single_set(100, 100, 0.7, trials=1000, seed=1)
    assert res.estimate == 1.0
    assert res.stderr == 0.0


def test_monte_carlo_matches_closed_form():
    for lo, hi in [(192, 256), (64, 256)]:
        for p in (0.25, 0.5, 0.75):
            res = monte_carlo_single_set(lo, hi, p, trials=200_000, seed=7)
            expect = p_avg(lo, hi) if p == 0.5 else _expected(lo, hi, p)
            assert abs(res.estimate - expect) < 3 * res.stderr + 1e-9


def _expected(lo, hi, p):
    vals = [p_correct(lo, hi, b, p) for b in range(lo, hi + 1)]
    return sum(vals) / len(vals)


def test_monte_carlo_reproducible():
    a = monte_carlo_single_set(192, 256, 0.5, trials=10_000, seed=3)
    b = monte_carlo_single_set(192, 256, 0.5, trials=10_000, seed=3)
    assert a.estimate == b.estimate


def test_monte_carlo_stderr_scale():
    res = monte_carlo_single_set(192, 256, 0.5, trials=100_000, seed=2)
    assert 0 < res.stderr < math.sqrt(0.25 / 100_000) * 1.5


def _oracle(b_min: int, b_max: int, p: Fraction) -> dict[int, Fraction]:
    """Exact success probability for each prime-time size B, from every
    (B, B*) pair and the three regime rules, without p_correct's algebra:
    B* > B is right with p, B* == B always, B* < B with 1 - p."""
    rule = {1: p, 0: Fraction(1), -1: 1 - p}
    sizes = range(b_min, b_max + 1)
    exact = {}
    for b in sizes:
        counts = {1: 0, 0: 0, -1: 0}
        for b_star in sizes:
            counts[(b_star > b) - (b_star < b)] += 1
        exact[b] = sum(n * rule[r] for r, n in counts.items()) / len(sizes)
    return exact


def _within_ulps(x: float, exact: Fraction, ulps: int = 4) -> bool:
    return abs(x - float(exact)) <= ulps * math.ulp(float(exact))


@pytest.mark.parametrize("lo_kb, hi_kb", [(12, 16), (8, 16), (4, 16)])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                               Fraction(1)])
def test_closed_form_matches_exact_pair_enumeration(lo_kb, hi_kb, p):
    b_min, b_max = lo_kb * 1024 // 64, hi_kb * 1024 // 64
    span = b_max - b_min + 1
    exact = _oracle(b_min, b_max, p)
    average = sum(exact.values()) / span
    assert average == Fraction(1, 2) + Fraction(1, 2 * span)
    assert _within_ulps(p_avg(b_min, b_max), average)
    for b, value in exact.items():
        assert _within_ulps(p_correct(b_min, b_max, b, float(p)), value), b
