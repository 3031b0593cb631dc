"""Closed-form attacker-success probabilities and a Monte Carlo cross-check.

The single-set model: an attacker who knows the enabled backup size at
prime time (B) spies on one cache set. At probe time the enabled size has
been redrawn uniformly to B_star in [b_min, b_max]. Three observation
regimes follow:

  * B_star > B  -- the probe sees all hits; ambiguous. The attacker's
                   guess is correct with probability p.
  * B_star == B -- the observation reveals the truth exactly.
  * B_star < B  -- the probe sees misses regardless of the victim;
                   the guess is correct with probability 1 - p.

Averaged over a uniform B the p-dependent terms cancel.
"""

import math
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """Invalid probability-model parameters."""


def _check_range(b_min: int, b_max: int) -> int:
    if not 1 <= b_min <= b_max:
        raise ModelError(f"need 1 <= b_min <= b_max, got {b_min}/{b_max}")
    return b_max - b_min + 1


def p_correct(b_min: int, b_max: int, b: int, p: float = 0.5) -> float:
    """Probability of a correct guess for a known prime-time size b."""
    span = _check_range(b_min, b_max)
    if not b_min <= b <= b_max:
        raise ModelError(f"b={b} outside [{b_min}, {b_max}]")
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"p={p} outside [0, 1]")
    return ((b_max - b) * p + 1 + (b - b_min) * (1 - p)) / span


def p_avg(b_min: int, b_max: int) -> float:
    """Average success probability over all prime-time sizes; p cancels."""
    span = _check_range(b_min, b_max)
    return 0.5 + 1.0 / (2 * span)


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    stderr: float


def monte_carlo_single_set(b_min: int, b_max: int, p: float = 0.5,
                           trials: int = 10**6, seed: int = 0) -> MonteCarloResult:
    """Empirical success rate of the single-set guessing game.

    Draws B and B_star independently and uniformly per trial, applies the
    observation regimes above, and returns the success rate with its
    binomial standard error. Converges to p_avg(b_min, b_max).
    """
    _check_range(b_min, b_max)
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"p={p} outside [0, 1]")
    if trials < 1:
        raise ModelError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    b = rng.integers(b_min, b_max + 1, size=trials)
    b_star = rng.integers(b_min, b_max + 1, size=trials)
    secret = rng.integers(0, 2, size=trials)
    noise = rng.random(trials)
    # Guess equals the secret with probability p (all-hits regime),
    # certainty (revealing regime), or 1-p (all-misses regime).
    guess_matches = np.where(
        b_star > b, noise < p,
        np.where(b_star == b, True, noise < 1.0 - p))
    guess = np.where(guess_matches, secret, 1 - secret)
    rate = float(np.mean(guess == secret))
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return MonteCarloResult(estimate=rate, stderr=stderr)
