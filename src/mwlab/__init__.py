"""mwlab: graph-directed iterated function systems as computable objects.

Build a system from a directed multigraph, per-vertex seed boxes, and one
affine contraction per edge; then compute certified approximations of its
invariant set, verify the structural conditions behind simplicity of the
associated algebra (branch points, cograph separation, open set condition),
evaluate the bimodule formulas on sampled data, and read off K-groups of the
underlying graph algebra by exact integer linear algebra.
"""

from .attractor import (
    InvariantListApprox,
    MWGraphSpec,
    SeedBox,
    VertexCloud,
    coding_map_prefix,
    cylinder_set,
    invariance_residual,
    invariant_list,
    total_paths,
    write_point_cloud_csv,
)
from .conditions import (
    BranchPoint,
    BranchReport,
    HypothesisReport,
    OscResult,
    SeparationResult,
    Verdict,
    branch_index,
    branch_points,
    graph_separation,
    open_set_condition,
    simplicity_report,
)
from .correspondence import (
    CographFunction,
    SampledObservable,
    expectation,
    inner_product,
    is_invariant,
    norm_inf,
    norm_two,
    tensor_eval,
    xi_zero,
)
from .datasets import list_bundled, load_bundled
from .errors import (
    BudgetExceededError,
    GeometryError,
    MWLabError,
    PreconditionError,
    ResolutionError,
    SpecValidationError,
)
from .geometry import (
    AffineContraction,
    ConvexPolygon,
    Interval,
    LabeledPoint,
    contraction_bounds,
    hausdorff_distance,
    polygon_in_union,
    polygons_disjoint,
    similarity_from_pairs,
    similarity_from_params,
)
from .graph import (
    Edge,
    Graph,
    Path,
    has_sinks_or_sources,
    is_irreducible,
    paths_from,
    vertex_matrix,
)
from .ktheory import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    Presentation,
    SmithDecomposition,
    check_exact,
    cokernel,
    graph_algebra_ktheory,
    hermite_normal_form,
    kernel,
    smith_normal_form,
)
from .specio import parse_spec, parse_spec_document, serialize_spec

__version__ = "0.1.0"
