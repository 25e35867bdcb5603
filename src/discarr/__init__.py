"""Exact-arithmetic toolkit for discriminantal arrangements.

Everything runs on arbitrary-precision integers, with `Fraction`s only where
a rational is read or reported and in `construct_dependent`'s resample
checks: construction of the concurrency hyperplanes of a generic trace, the
codimension-2 census of multiple flats, from the full (k+2)-subsets and the
dependent triples (the SIMPLE crossings are the pairs that `simple_pairs`
yields), detection
and construction of dependent configurations, Gale transforms and their
discriminantal interpretation, the combinatorial dimension theory of line
arrangements, and braid monodromy with fundamental-group presentations of
generic plane sections.

The records are named tuples (so a record equals the plain tuple of its
fields), and every public function returns the same result for the same
arguments; three caches, an arrangement's `minors` and `planar`'s `_memo`
and `_closed`, hold state that never changes a result.  The one exception:
the `commuting` family of `nilpotent_relations` is a one-pass iterator.
"""

from .arrangement import (
    GenericArrangement,
    arrangement_from_json,
    arrangement_to_json,
    is_trace_generic,
    random_generic,
)
from .braid import BraidWord, braids_equal, full_twist, halftwist
from .discriminantal import (
    DEPENDENT,
    GOOD,
    OTHER,
    SIMPLE,
    DiscForm,
    StratumRecord,
    build_all,
    build_form,
    codim2_census,
    codim_intersection,
    construct_dependent,
    dependent_triples,
    simple_pairs,
)
from .gale import (
    concurrent_partition_exists,
    essential_normals_via_gale,
    gale_transform,
    pencil_partition_exists,
)
from .linalg import QMatrix
from .monodromy import (
    Presentation,
    SectionLine,
    SectionPlane,
    SingularPoint,
    braid_monodromy,
    nilpotent_relations,
    presentation,
    random_section,
    section_lines,
    singular_points,
)
from .planar import (
    codim_combinatorial,
    dim_combinatorial,
    merge_classes,
    verify_independence,
)

__version__ = "0.1.0"
