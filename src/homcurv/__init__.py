"""homcurv: invariant metrics and sectional curvature on compact homogeneous spaces."""

__version__ = "0.1.0"

from .algebra import (
    LieAlgebra,
    MatrixRealization,
    GroupElement,
    build_algebra,
    direct_sum,
    bracket,
    ad_operator,
    matrix_of,
    coords_of,
    rank,
    group_element,
    centralizer_subalgebra,
    validate_algebra,
)
from .spaces import (
    HomogeneousSpace,
    CatalogError,
    make_space,
    catalog_labels,
    catalog_build,
    catalog_entries,
    fixed_subalgebra_in_h,
)
