"""latfuzz: a finite residuated-lattice workbench.

Validated finite residuated lattices, lattice-valued sets and partitions,
direct upper transforms, derived closure systems/operators/relations,
greatest-witness morphism checking, and coalgebra/dialgebra views, all
exactly computable on finite carriers.

The modules of `_LAZY` are registered, not run, at import: each is compiled
and run when a command or a caller first reads one of its attributes, so a
command that needs none of them does not pay for them.  A name they export
is served by `__getattr__`, which loads its module then.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import (
    BudgetExceeded,
    CandidateError,
    DocumentError,
    ElementError,
    LatticeBuildError,
    MismatchError,
    PartitionError,
    PreconditionError,
    WorkbenchError,
)
from .lattice import (
    DEFAULT_BUDGET,
    Lattice,
    LawReport,
    boolean_algebra,
    build,
    from_tables,
    godel_chain,
    law_suite,
    lukasiewicz_chain,
    zero_divisor_scan,
)
from .fuzzyset import (
    ClosureOperator,
    ClosureSystem,
    FuzzySet,
    Universe,
    UniverseMap,
    from_labels,
    set_at,
)
from .partition import (
    FuzzyPartition,
    is_identity_indexed,
    product_partition,
    relation_from_partition,
    validate_partition,
)
from .relation import (
    FuzzyRelation,
    relation_from_system,
    upper_approx,
)
from .record import replace

# module -> the names the package exports from it, loaded on first use
_LAZY = {
    "ftransform": ("ft_field", "ft_transform", "transform_law_suite"),
    "closure": (
        "check_system", "operator_from_system", "roundtrip_relation",
        "roundtrip_system", "system_from_operator", "system_from_partition",
        "system_from_relation",
    ),
    "morphism": (
        "FPMapCandidate", "FPSProduct", "Witness", "fas_witness",
        "fcs_witness", "fcss_witness", "fp_witness", "fps_product",
        "index_square_diagnostic", "make_candidate",
    ),
    "algebra": (
        "HomVerdict", "TransferVerdict", "adjunction_check", "check_coa_hom",
        "check_dia_hom", "identity_indexed", "morphism_transfer_check",
        "transform_table",
    ),
}
_EXPORTED = {name: module for module, names in _LAZY.items() for name in names}

for _name in _LAZY:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    """A module of `_LAZY`, or a name exported from one."""
    module = _EXPORTED.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
