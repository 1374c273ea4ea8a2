"""pagaudit: explain black-box predictions with causal structure learning.

Learns a partial ancestral graph over interpretable features plus a
prediction column, separating (possible) causes of the prediction from
features that merely co-vary with it through unmeasured confounding, and
reports bootstrap edge stability.
"""

__version__ = "0.1.0"

from .citests import (
    CiOracle,
    CiTestResult,
    chi_square_test,
    d_separated,
    fisher_z_test,
    oracle_test,
)
from .data import Column, CountTable, Dataset, parse_schema, read_csv, write_csv
from .errors import (
    DegenerateInputError,
    FitError,
    InputError,
    InternalConsistencyError,
    KnowledgeInconsistencyError,
    PagauditError,
    SchemaError,
)
from .fci import (
    CiTester,
    Diagnostics,
    FciConfig,
    FciResult,
    SepSetMap,
    apply_orientation_rules,
    fci_run,
    orient_colliders,
    parse_knowledge,
    possible_dsep_prune,
    skeleton_search,
)
from .graph import (
    BackgroundKnowledge,
    Edge,
    EdgeClass,
    GraphKind,
    Mark,
    MixedGraph,
    ancestors,
    classify_edge,
    descendants,
    from_json,
    to_dot,
    to_json,
    validate,
)
from .simgen import expit, sample_dataset, simulate, surrogate_predictor, truth_dag
from .stability import (
    StabilityConfig,
    StabilityReport,
    bootstrap_replicate,
    run_stability,
)
