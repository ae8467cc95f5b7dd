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
    LatticeReport,
    LawSuiteReport,
    boolean_algebra,
    build,
    from_tables,
    godel_chain,
    has_zero_divisors,
    law_suite,
    lukasiewicz_chain,
    zero_divisor_scan,
)
from .fuzzyset import (
    CrispSubset,
    FuzzySet,
    Universe,
    UniverseMap,
    backward_image,
    constant,
    enumerate_sets,
    forward_image,
    from_labels,
    pointwise,
    set_at,
    set_index,
    space_size,
)
from .partition import (
    FuzzyPartition,
    is_identity_indexed,
    product_partition,
    relation_from_partition,
    validate_partition,
)
from .ftransform import (
    FTransformResult,
    TransformLawReport,
    ft_component,
    ft_field,
    ft_transform,
    transform_law_suite,
)
from .relation import (
    FuzzyRelation,
    constant_relation,
    identity_relation,
    relation_from_system,
    upper_approx,
)
from .closure import (
    ClosureOperator,
    ClosureSystem,
    OperatorCheck,
    RoundTripReport,
    SystemCheck,
    check_operator,
    check_system,
    identity_operator,
    operator_from_function,
    operator_from_system,
    roundtrip_relation,
    roundtrip_system,
    system_from_explicit,
    system_from_operator,
    system_from_partition,
    system_from_relation,
)
from .morphism import (
    ComposedFP,
    FPMapCandidate,
    FPSProduct,
    IndexSquareReport,
    Witness,
    compose_fp,
    fas_operator_witness,
    fas_witness,
    fcs_witness,
    fcss_witness,
    fp_witness,
    fps_product,
    ft_forward_bound,
    ft_inequality_witness,
    identity_candidate,
    index_square_diagnostic,
    make_candidate,
)
from .algebra import (
    AdjunctionVerdict,
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
    t1_on_morphism,
)

__version__ = "0.1.0"
