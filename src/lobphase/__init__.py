"""Phase-transition analytics and simulators for a state-independent limit order book.

The model: unit-size limit bids and asks arrive i.i.d. with continuous price
laws, an arrival executes against the opposite best quote when it crosses it
(or shares its bin, in the binned variants), and nothing is ever cancelled.
The package computes the two threshold prices separating never-executed from
infinitely-often-cleared price regions three independent ways (closed form,
ODE shooting, Monte Carlo), checks the pathwise coupling and monotonicity
laws the analysis rests on, and certifies the recurrence drift conditions of
the five-bin reservoir model in exact arithmetic.
"""

from .analytics import (BinnedPi, VarpiSolution, kappa_uniform_exact,
                        lambert_w_of_inv_e, lower_bound_3bin, shoot_kappa,
                        solve_binned_pi, varpi_uniform_exact)
from .book import (ORDINARY, ORDINARY_BINNED, STRICT_BINNED, ArrivalEffect,
                   BookInvariantError, BookState, MatchRule, Order,
                   apply_arrival, match_arrivals)
from .dist import (ArrivalSpec, BinPartition, PriceDist, cdf_table_dist,
                   dist_from_config, make_partition, piecewise_linear_dist,
                   quantile, refines, transform_to_uniform_bid, uniform_dist)
from .sim import (ArrivalStream, KappaEstimate, Trace, empirical_pi,
                  estimate_kappa, run)

__version__ = "0.1.0"
