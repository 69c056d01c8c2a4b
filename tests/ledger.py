"""The output ledger: every method's figures over one fixed grid.

tests/data/outputs.json holds psi_hat, se and every profile mean, as
float hex, of sri, cca and mi (mi_m = 5, seeded by the draw's seed) on
each observed draw and of the oracle on its full draw, under the default
sieve and under a cubic outcome chain with interactions. The draws are
DgpConfig (n, seed) = (250, 11), (1000, 13) and (2000, 14), and the
K = 3 draw with vector mediator blocks that the property tests build
from the first 600 records of the shared n = 2000 draw.

test_ledger.py recomputes the grid and compares each figure. A change
that moves outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/ledger.py

and says which figures moved, by how much and why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from shadowpse.baselines import (
    MethodOptions,
    cca_estimate,
    mi_estimate,
    oracle_estimate,
    sri_estimate,
)
from shadowpse.sieve_basis import SieveOptions
from shadowpse.simulation import DgpConfig, generate

from support import seq, three_mediators

LEDGER = Path(__file__).resolve().parent / "data" / "outputs.json"
SIEVES = {"default": SieveOptions(), "cubic": SieveOptions(mu_degree=3, mu_interactions=True)}


def draws():
    """(name, full, observed, mi seed) of each draw of the grid."""
    for n, seed in ((250, 11), (1000, 13), (2000, 14)):
        full, obs = generate(DgpConfig(n=n, seed=seed))
        yield f"n{n}-seed{seed}", full, obs, seed
    full, obs = generate(DgpConfig(n=2000, seed=seq(1)))
    head = np.arange(obs.n) < 600
    yield "k3-n600", three_mediators(full.subset(head)), three_mediators(obs.subset(head)), seq(1)


def figures(res) -> dict:
    return {
        "psi_hat": {name: float(rep.psi_hat).hex() for name, rep in res.estimands.items()},
        "se": {name: float(rep.se).hex() for name, rep in res.estimands.items()},
        "profiles": {"".join(map(str, prof)): float(psi).hex()
                     for prof, psi in res.profiles.items()},
    }


def compute() -> dict:
    """{"draw/sieve/method": figures} over the whole grid."""
    out = {}
    for name, full, obs, seed in draws():
        for label, sieve in SIEVES.items():
            options = MethodOptions(sieve=sieve, mi_m=5)
            results = {
                "sri": sri_estimate(obs, options=options),
                "cca": cca_estimate(obs, options=options),
                "mi": mi_estimate(obs, options=options, seed=seed),
                "oracle": oracle_estimate(full, options=options),
            }
            for method, res in results.items():
                out[f"{name}/{label}/{method}"] = figures(res)
    return out


def main() -> None:
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    main()
