"""Discounted online learners for non-stationary streams.

The package bundles:

* synthetic drifting regression streams (`streams`),
* dynamic/discounted regret accounting and conversion identities (`regret`),
* the discounted VAW forecaster for online linear regression (`linreg`),
* discounted AIOLI and a mixability ensemble for online logistic
  regression (`logreg`),
* clipped and clip-free Adam update rules viewed as discounted FTRL,
  plus tuning calculators (`adam`),
* the exponentiated online-to-non-convex driver (`o2nc`),
* numerical oracles for the supporting inequalities (`lemmas`),
* a reproducible experiment CLI (`cli`).

``import driftlearn`` loads no submodule.  Each one in ``__all__`` is
imported on first access as an attribute (``driftlearn.linreg``, ``from
driftlearn import linreg``, ``from driftlearn import *``), through the
module ``__getattr__`` of PEP 562, so a process pays only for the modules
it uses; ``import driftlearn.linreg`` works as for any package.
"""

import importlib

__all__ = ["adam", "lemmas", "linreg", "logreg", "o2nc", "regret", "streams"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        # import_module binds the submodule on the package, so this runs
        # once per name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
