"""Exact engine for temporal valued constraint satisfaction problems.

Valued relations over Q that are invariant under all order-preserving
bijections are represented as finite cost tables indexed by order types
(weak orders).  On top of that representation the package provides the
closure calculus on tables, canonical operations with exhaustive
preservation/improvement testers, a P vs NP-complete meta-classifier with
machine-checkable witnesses, exact solvers for the tractable cases, a
brute-force oracle, and a small file format with a CLI.
"""

from .cost import Cost, INF, ZERO, parse_cost
from .orders import (
    JointConfig,
    WeakOrder,
    canonical_weak_order,
    enumerate_weak_orders,
    joint_configs,
    ordered_bell,
)
from .relations import (
    Expression,
    ValuedRelation,
    ValuedStructure,
    build_hat,
    catalog_names,
    crisp_relation,
    eval_expression,
    feas,
    feas_structure,
    is_equality_invariant,
    minor,
    named_relation,
    opt,
    rel_abg,
    relation_from_fn,
    reverse_relation,
    scale,
    shift,
)
from .canonops import (
    CLASSIFIER_OPS,
    CanonicalOp,
    CheckResult,
    Counterexample,
    OPS,
    apply_op,
    apply_values,
    improves,
    preserves,
)
from .cspengine import (
    CrispInstance,
    SatResult,
    forced_equalities,
    solve_crisp_complete,
    solve_crisp_freeset,
    solve_crisp_minlayer,
)
from .classify import Verdict, classify_equality, classify_temporal
from .solvers import (
    Instance,
    SolveOutcome,
    evaluate,
    solve_const,
    solve_dispatch,
    solve_equality_inj,
    solve_essentially_crisp,
    solve_exact_layers,
    solve_lex,
    solve_oracle,
)
from .files import (
    gen_feedback_arc_set,
    parse_expression,
    parse_instance,
    parse_structure,
    serialize_expression,
    serialize_instance,
    serialize_relation,
    serialize_structure,
)
from .errors import (
    CapacityError,
    InvariantViolation,
    ParseError,
    PreconditionError,
    TvcspError,
    UnsupportedClassError,
)

__version__ = "0.1.0"
