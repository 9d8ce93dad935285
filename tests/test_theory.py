import math

import numpy as np
import pytest

from cswlp import (
    delta_hat_lp,
    delta_hat_wl1,
    delta_hat_wlp,
    error_constants,
    proposition2_check,
    sufficient_condition_holds,
    theory,
)


def _wl1_constants(a: float, omega: float, alpha: float, rho: float, d1: float, d2: float) -> tuple[float, float]:
    """Independent p = 1 closed form used to anchor the general formula;
    (inf, inf) where its denominator is not positive."""
    g = omega + (1.0 - omega) * math.sqrt(1.0 + rho - 2.0 * alpha * rho)
    D = math.sqrt(1.0 - d2) - g * math.sqrt((1.0 + d1) / a)
    if D <= 0.0:
        return math.inf, math.inf
    c1 = 2.0 * (1.0 + g / math.sqrt(a)) / D
    c2 = (2.0 / math.sqrt(a)) * (math.sqrt(1.0 + d1) + math.sqrt(1.0 - d2)) / D
    return c1, c2


def test_lp_bound_spot_value():
    # a = 3, p = 2/5: (3^4 - 1) / (3^4 + 1)
    assert abs(delta_hat_lp(3.0, 0.4) - 80.0 / 82.0) < 1e-12


@pytest.mark.parametrize("p", [1e-3, 1e-6])
def test_thresholds_at_small_p(p):
    # a^(2/p - 1) and gamma^(2/p) leave the float range here; each
    # threshold is (t - g) / (t + g) = tanh((ln t - ln g) / 2), in [-1, 1]
    e = 2.0 / p - 1.0
    assert delta_hat_lp(3.0, p) == 1.0
    # gamma = 0: omega = 0 on an estimate that is the whole support
    assert delta_hat_wlp(3.0, p, 0.0, 1.0, 1.0) == 1.0
    # gamma > 1, an estimate that misses: at rho = 2, gamma = b^(1 - p/2)
    # with b = 3 - 4 alpha, so t / g = (3 / b)^e, and the threshold is
    # tanh(e ln(3 / b) / 2): 0 at alpha = 0, and tanh(1) near alpha = 3p/4;
    # the logs of t and g, about e ln 3 each, round to 1e-16 of that
    for alpha in (0.0, 0.75 * p, 0.25):
        b = 1.0 + 2.0 - 2.0 * alpha * 2.0
        assert b ** (1.0 - 0.5 * p) > 1.0
        got = delta_hat_wlp(3.0, p, 0.0, alpha, 2.0)
        assert -1.0 <= got <= 1.0
        assert abs(got - math.tanh(0.5 * e * math.log(3.0 / b))) <= 1e-15 * e * math.log(3.0), (alpha, got)


def test_thresholds_are_the_formula_where_its_powers_are_floats():
    # down to p = 0.0032, just above where 3^(2/p - 1) overflows, the
    # thresholds are the written formula, bit for bit
    for p in (0.0032, 0.01, 0.3, 1.0):
        t = 3.0 ** (2.0 / p - 1.0)
        assert delta_hat_lp(3.0, p) == (t - 1.0) / (t + 1.0)
        g = (0.3**p + (1.0 - 0.3**p) * (1.0 + 2.0 - 2.0 * 0.2 * 2.0) ** (1.0 - 0.5 * p)) ** (2.0 / p)
        assert delta_hat_wlp(3.0, p, 0.3, 0.2, 2.0) == (t - g) / (t + g)


def test_wl1_bound_spot_value():
    # a = 3, omega = 0, alpha = 0.8, rho = 1
    assert abs(delta_hat_wl1(3.0, 0.0, 0.8, 1.0) - 2.6 / 3.4) < 1e-12


def test_wlp_bound_spot_value():
    # a = 3, p = 0.5, omega = 0, alpha = 0.8, rho = 1
    assert abs(delta_hat_wlp(3.0, 0.5, 0.0, 0.8, 1.0) - 26.936 / 27.064) < 1e-3


def test_wlp_reduces_to_lp_at_unit_weight():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(200):
        a = rng.uniform(1.01, 8.0)
        p = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        rho = rng.uniform(0.0, 2.0)
        if alpha * rho > 1.0:
            continue  # more correct entries than the support holds
        checked += 1
        assert abs(delta_hat_wlp(a, p, 1.0, alpha, rho) - delta_hat_lp(a, p)) < 1e-12
    assert checked > 100


def test_wlp_reduces_to_wl1_at_p_one():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        a = rng.uniform(1.01, 8.0)
        omega = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        rho = rng.uniform(0.0, 2.0)
        if alpha * rho > 1.0:
            continue
        checked += 1
        assert abs(delta_hat_wlp(a, 1.0, omega, alpha, rho) - delta_hat_wl1(a, omega, alpha, rho)) < 1e-12
    assert checked > 100


def test_bounds_lie_in_unit_interval_and_grow_with_a():
    for a in (1.5, 2.0, 3.0, 6.0):
        v = delta_hat_lp(a, 0.5)
        assert 0.0 < v < 1.0
    assert delta_hat_lp(4.0, 0.5) > delta_hat_lp(3.0, 0.5)
    # a good estimate (alpha > 0.5) weakens the requirement versus omega = 1
    assert delta_hat_wlp(3.0, 0.5, 0.3, 0.9, 1.0) > delta_hat_wlp(3.0, 0.5, 1.0, 0.9, 1.0)


def test_param_validation():
    # each refusal of a bad parameter comes from the function given it
    error_constants(2.0, 0.5, 0.5, 0.5, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="p must lie in"):
        error_constants(2.0, 0.0, 0.5, 0.5, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="omega must lie in"):
        error_constants(2.0, 0.5, 1.5, 0.5, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="a must exceed 1"):
        error_constants(1.0, 0.5, 0.5, 0.5, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"delta_ak must lie in \[0, 1\), got 1.0$"):
        sufficient_condition_holds(2.0, 0.5, 0.5, 0.5, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match=r"delta_a1k must lie in \[0, 1\), got -0.1$"):
        error_constants(2.0, 0.5, 0.5, 0.5, 1.0, 0.1, -0.1)


def test_sufficient_condition_threshold():
    assert sufficient_condition_holds(3.0, 0.5, 0.5, 0.7, 1.0, 0.05, 0.05)
    assert not sufficient_condition_holds(3.0, 0.5, 0.5, 0.7, 1.0, 0.99, 0.99)


def test_theory_functions_take_one_positional_order():
    # (a, p, omega, alpha, rho), the column order of theory.csv, leads every call
    t = (3.0, 0.5, 0.3, 0.7, 1.0)
    threshold = delta_hat_wlp(*t)
    # an estimate more than half right (alpha > 1/2) raises the threshold
    assert delta_hat_lp(*t[:2]) < threshold < 1.0
    # with delta_ak = delta_(a+1)k = d the condition reads d < delta_hat_wlp
    for d in (0.5 * threshold, 0.5 * (1.0 + threshold)):
        assert sufficient_condition_holds(*t, d, d) == (d < threshold)
    assert all(c > 0.0 for c in error_constants(*t, 0.5 * threshold, 0.5 * threshold))
    assert proposition2_check(*t, [0.0, 0.5 * threshold])

    def unread():
        raise AssertionError("the grid was read")
        yield

    # the order proposition2_check took before, (p, omega, alpha, rho, a),
    # is refused before any grid point is computed
    with pytest.raises(ValueError, match=r"^a must exceed 1, got 0.5$"):
        proposition2_check(0.5, 0.3, 0.7, 1.0, 3.0, unread())


def test_condition_holds_exactly_when_the_constants_are_finite():
    # random draws, and draws with delta_(a+1)k at the condition's
    # threshold and at its float neighbours, where two forms of the same
    # inequality can round apart; the first draw is one such case; each
    # draw is (a, p, omega, alpha, rho, delta_ak, delta_a1k)
    draws = [(3.027488317197521, 0.7710397305057322, 0.4210929223498161, 0.05739995679562526,
              1.5646929371692606, 0.12840546323385527, 0.5846928301105241)]
    rng = np.random.default_rng(23)
    for _ in range(1500):
        a, p, omega, alpha, rho, d1 = (rng.uniform(1.01, 8.0), rng.uniform(0.05, 1.0), rng.uniform(),
                                       rng.uniform(), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5))
        if alpha * rho > 1.0:
            continue
        gamma = omega**p + (1.0 - omega**p) * (1.0 + rho - 2.0 * alpha * rho) ** (1.0 - p / 2.0)
        edge = 1.0 - gamma ** (2.0 / p) * (1.0 + d1) / a ** (2.0 / p - 1.0)
        for d2 in (rng.uniform(), edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)):
            if 0.0 <= d2 < 1.0:
                draws.append((a, p, omega, alpha, rho, d1, float(d2)))
    assert len(draws) > 3000
    held = 0
    for args in draws:
        c1, c2 = error_constants(*args)
        if sufficient_condition_holds(*args):
            assert math.isfinite(c1) and c1 > 0.0 and math.isfinite(c2) and c2 > 0.0, args
            held += 1
        else:
            assert (c1, c2) == (math.inf, math.inf), args
    # both outcomes are drawn
    assert 0 < held < len(draws)


def test_error_constants_positive_when_condition_holds():
    c1, c2 = error_constants(3.0, 0.5, 0.5, 0.7, 1.0, 0.1, 0.1)
    assert c1 > 0 and c2 > 0


def test_error_constants_are_infinite_when_denominator_vanishes():
    # the bound is vacuous there: its best constants are +inf
    assert error_constants(3.0, 0.5, 1.0, 0.7, 1.0, 0.99, 0.99) == (math.inf, math.inf)


def test_zero_weight_exact_estimate_degenerate_corner():
    # omega=0 with a perfect same-size estimate drives gamma to zero;
    # the condition and constants must still evaluate
    args = (3.0, 0.5, 0.0, 1.0, 1.0, 0.05, 0.05)
    assert sufficient_condition_holds(*args)
    c1, c2 = error_constants(*args)
    assert np.isfinite(c1) and c1 > 0.0
    assert np.isfinite(c2) and c2 > 0.0
    assert delta_hat_wlp(3.0, 0.5, 0.0, 1.0, 1.0) == 1.0


def test_constants_match_independent_l1_form_at_p_one():
    rng = np.random.default_rng(5)
    checked = vacuous = 0
    for _ in range(300):
        a = rng.uniform(1.5, 6.0)
        omega = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        rho = rng.uniform(0.1, 1.5)
        d = rng.uniform(0.0, 0.2)
        if alpha * rho > 1.0:
            continue
        got = error_constants(a, 1.0, omega, alpha, rho, d, d)
        want = _wl1_constants(a, omega, alpha, rho, d, d)
        # both forms are infinite on the same draws
        if math.inf in (*got, *want):
            assert got == want == (math.inf, math.inf), (a, omega, alpha, rho, d)
            vacuous += 1
            continue
        checked += 1
        assert abs(got[0] - want[0]) < 1e-12 * max(1.0, abs(want[0]))
        assert abs(got[1] - want[1]) < 1e-12 * max(1.0, abs(want[1]))
    assert checked > 100 and vacuous > 0


def _plain_lp_constants(p, a, d1, d2):
    """The unweighted (omega = 1) C1 and C2, written out apart from the
    library: with r = a^(1-p/2), q = (2/p-1)^(p/2) and
    E = r (1-d2)^(p/2) - (1+d1)^(p/2), C1 = 2^p (r q + 1) / (q E) and
    C2 = 2 (q (1+d1)^(p/2) + (1-d2)^(p/2)) / (q E)."""
    r = a ** (1.0 - p / 2.0)
    q = (2.0 / p - 1.0) ** (p / 2.0)
    lo, hi = (1.0 - d2) ** (p / 2.0), (1.0 + d1) ** (p / 2.0)
    E = r * lo - hi
    return 2.0**p * (r * q + 1.0) / (q * E), 2.0 * (q * hi + lo) / (q * E)


@pytest.mark.parametrize("p, a, d1, d2", [(0.5, 3.0, 0.1, 0.1), (0.3, 2.0, 0.2, 0.05), (0.9, 5.0, 0.0, 0.3)])
def test_unit_weight_constants_match_plain_lp_form(p, a, d1, d2):
    got = error_constants(a, p, 1.0, 0.3, 0.5, d1, d2)
    want = _plain_lp_constants(p, a, d1, d2)
    assert all(math.isfinite(v) and v > 0.0 for v in want)
    assert abs(got[0] - want[0]) < 1e-12 * abs(want[0])
    assert abs(got[1] - want[1]) < 1e-12 * abs(want[1])


def test_weighting_haves_and_have_nots():
    grid = np.linspace(0.0, 0.3, 31)
    # accurate estimate: weighted constants strictly better
    assert proposition2_check(3.0, 0.5, 0.3, 0.7, 1.0, grid)
    # half-accurate estimate: identical constants
    assert proposition2_check(3.0, 0.5, 0.3, 0.5, 1.0, grid)
    # misleading estimate: weighted constants strictly worse
    assert proposition2_check(3.0, 0.5, 0.3, 0.3, 1.0, grid)


def test_proposition_check_rejects_unit_weight_and_empty_grid():
    with pytest.raises(ValueError):
        proposition2_check(3.0, 0.5, 1.0, 0.7, 1.0, [0.1])
    # delta so large neither bound applies: nothing to compare, check fails
    assert not proposition2_check(3.0, 0.5, 0.3, 0.7, 1.0, [0.99])


def test_proposition_check_fails_a_point_that_breaks_the_alpha_pattern(monkeypatch):
    true_gamma = theory._gamma
    # at a = 9 both bounds apply with gamma 2.0, and a weighted gamma of 2.0
    # makes the weighted constants larger than the unweighted ones (gamma
    # 1.0 at omega = 1) while alpha > 1/2 asks for smaller ones
    monkeypatch.setattr(theory, "_gamma", lambda p, omega, alpha, rho: 2.0 if omega < 1.0 else true_gamma(p, omega, alpha, rho))
    assert not proposition2_check(9.0, 1.0, 0.3, 0.7, 1.0, [0.0])
    # the same point compared honestly matches the pattern
    monkeypatch.setattr(theory, "_gamma", true_gamma)
    assert proposition2_check(9.0, 1.0, 0.3, 0.7, 1.0, [0.0])
