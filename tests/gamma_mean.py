"""E[f(g)] over gamma gains in natural units, by the library's own rule and pass, and
the large-shape expansion of E[log1p(l*g/mu)]."""

import numpy as np

from simocap import specfun


def gamma_mean(f, shapes, scales, *columns) -> np.ndarray:
    # E[f(g_i, *columns_i)] for g_i ~ Gamma(shapes[i], scales[i]): the unit-mean nodes of
    # specfun._gamma_rule scaled to gains, g = scale*(shape*e^u), summed by specfun._rule_sums;
    # each column is an array of one entry per shape, and f takes its entries as (entries, 1)
    shapes, scales = np.asarray(shapes, dtype=float), np.asarray(scales, dtype=float)
    nodes, weights, which = specfun._gamma_rule(shapes)
    return specfun._rule_sums(nodes, weights, which, [lambda e_u, k, theta, *rest: f(
        theta * (k * e_u), *rest)], shapes, scales, *columns)[0]


def log1p_mean_expansion(load, shape) -> np.ndarray:
    # E3: E[log1p(l*g/mu)] for g ~ Gamma(k, mu/k) through its k^-3 term, t = l/(1 + l),
    #   log1p(l) - t^2/(2k) + ((2/3)t^3 - (3/4)t^4)/k^2 + c3(t)/k^3,
    #   c3(t) = -(3/2)t^4 + 4t^5 - (5/2)t^6; test_rates derives it
    load, k = np.asarray(load, dtype=float), np.asarray(shape, dtype=float)
    t = load / (1.0 + load)
    c3 = t**4 * (-1.5 + t * (4.0 - 2.5 * t))
    return np.log1p(load) - t * t / (2.0 * k) + t**3 * (2.0 / 3.0 - 0.75 * t) / k**2 + c3 / k**3
