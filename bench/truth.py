"""Exact counterfactual means of the benchmark generator, by quadrature.

The generator draws x1 and x2 uniform on (0, 1) (x1 is the normal CDF of
a standard normal), x3 Bernoulli(1/2), and mean-zero noises that enter
m1, m2 and y additively. Each structural equation is linear in the
upstream mediators, so substituting conditional means is exact and the
only integral left is over (x1, x2) and the binary x3. The equations are
written out here from the DgpConfig coefficients; nothing is taken from
the package's own truth code.

Run ``python3 bench/truth.py`` from the repository root to print the
truth as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import product

import numpy as np

# Contrast name -> (profile A, profile B); a profile is (a_1, a_2, a_3):
# the treatment seen by m1, by m2 and by y.
CONTRASTS = {
    "nde": ((0, 0, 1), (0, 0, 0)),
    "nie_1": ((1, 1, 1), (0, 1, 1)),
    "nie_2": ((0, 1, 1), (0, 0, 1)),
    "te": ((1, 1, 1), (0, 0, 0)),
}

QUAD_NODES = 64


def psi(config, profile) -> float:
    """E[Y(a_3, M2(a_2, M1(a_1)), M1(a_1))] under the given profile."""
    a1, a2, a3 = profile
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    u = 0.5 * (nodes + 1.0)
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    grid_w = np.outer(0.5 * weights, 0.5 * weights)
    c1, c2, cy = config.m1, config.m2, config.y
    total = 0.0
    for x3 in (0.0, 1.0):
        m1 = (c1.icept + c1.a * a1 + c1.sin_x1 * np.sin(x1) + c1.x1_sq * x1 ** 2
              + c1.x2 * x2 + c1.x3 * x3)
        m2 = (c2.icept + c2.a * a2 + c2.x1 * x1 + c2.x2_sq * x2 ** 2 + c2.x3 * x3
              + c2.a_m1 * a2 * m1)
        y = (cy.icept + cy.a * a3 + cy.m1 * m1 + cy.m2 * m2 + cy.x1 * x1
             + cy.x1_sq * x1 ** 2 + cy.sin_x2 * np.sin(x2) + cy.x2_sq * x2 ** 2
             + cy.x3 * x3 + cy.a_m1 * a3 * m1 + cy.a_m2 * a3 * m2)
        total += 0.5 * float(np.sum(grid_w * y))
    return total


def truth(config) -> dict:
    """{"psi": {"000": ..., ...}, "contrasts": {"nde": ..., ...}}."""
    means = {prof: psi(config, prof) for prof in product((0, 1), repeat=3)}
    return {
        "psi": {"".join(map(str, p)): v for p, v in means.items()},
        "contrasts": {name: means[pa] - means[pb] for name, (pa, pb) in CONTRASTS.items()},
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from shadowpse.simulation import DgpConfig

    print(json.dumps(truth(DgpConfig()), indent=2))
