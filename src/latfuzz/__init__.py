"""latfuzz: a finite residuated-lattice workbench.

Validated finite residuated lattices, lattice-valued sets and partitions,
direct upper transforms, derived closure systems/operators/relations,
greatest-witness morphism checking, and coalgebra/dialgebra views, all
exactly computable on finite carriers.
"""

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
from .ftransform import (
    ft_field,
    ft_transform,
    transform_law_suite,
)
from .relation import (
    FuzzyRelation,
    relation_from_system,
    upper_approx,
)
from .closure import (
    ClosureOperator,
    ClosureSystem,
    check_system,
    operator_from_system,
    roundtrip_relation,
    roundtrip_system,
    system_from_operator,
    system_from_partition,
    system_from_relation,
)
from .morphism import (
    FPMapCandidate,
    FPSProduct,
    Witness,
    fas_witness,
    fcs_witness,
    fcss_witness,
    fp_witness,
    fps_product,
    index_square_diagnostic,
    make_candidate,
)
from .algebra import (
    HomVerdict,
    StructureTable,
    TransferVerdict,
    adjunction_check,
    check_coa_hom,
    check_dia_hom,
    coa_to_dia,
    coalgebra_from_partition,
    dia_to_coa,
    dialgebra_from_partition,
    morphism_transfer_check,
    transform_table,
)
from .record import replace

__version__ = "0.1.0"
