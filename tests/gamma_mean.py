"""E[f(g)] over gamma gains in natural units, by the library's own rule and pass."""

import numpy as np

from simocap import specfun


def gamma_mean(f, shapes, scales, *columns) -> np.ndarray:
    # E[f(g_i, *columns_i)] for g_i ~ Gamma(shapes[i], scales[i]): the unit-mean nodes of
    # specfun._gamma_rule scaled to gains, g = scale*(shape*e^u), summed by specfun._rule_sums;
    # each column is an array of one entry per shape, and f takes its entries as (entries, 1)
    shapes, scales = np.asarray(shapes, dtype=float), np.asarray(scales, dtype=float)
    nodes, weights, which = specfun._gamma_rule(shapes)
    return specfun._rule_sums(nodes, weights, which, lambda e_u, k, theta, *rest: f(
        theta * (k * e_u), *rest), shapes, scales, *columns)
