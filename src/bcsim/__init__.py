"""L1 data cache simulator with an eviction-hiding backup cache.

Provides a trace-driven cache hierarchy model, Prime+Probe attack
scenarios for evaluating it, and closed-form plus Monte Carlo analysis of
attacker success probabilities.
"""

__version__ = "0.1.0"
