"""Exact-arithmetic engine for sumsets, product sets, additive and
multiplicative energies, and the constructive extraction pipelines built
on them."""

__version__ = "0.1.0"

from .sets import (  # noqa: F401
    IntSet,
    RatSet,
    iterated_sumset,
    iterated_product_set,
    generate,
)
from .energy import (  # noqa: F401
    ADDITIVE,
    MULTIPLICATIVE,
    RepFunction,
    EnergyValue,
    rep_function,
    energy,
    energy_oracle,
    mixed_energy,
    sup_rep,
)
from .checks import CheckReport  # noqa: F401
from .bsg import (  # noqa: F401
    KpResult,
    PopularSumGraph,
    bsg_extract,
    kp_pipeline,
    kp_verify,
)
from .decomposer import (  # noqa: F401
    DecomposeConfig,
    Decomposition,
    com2_budget,
    com2_simulate,
    decompose,
    decompose_eric,
    sign_split,
)
from .errors import EnergiaError  # noqa: F401
