"""omegalab: adjoint graph functors, box complexes, equivariant Morse
collapses, mod-2 homology certificates, and the rational approximation map,
all at machine-checkable desk scale."""

__version__ = "0.1.0"

from .errors import (
    Budgets,
    ContractError,
    OmegalabError,
    ParameterError,
    ParseError,
    PreconditionError,
    ResourceError,
)
from .graphs import (
    Graph,
    biclique,
    circular_clique,
    clique,
    common_neighborhood,
    cycle_graph,
    is_joined,
    is_square_free,
    make_family,
    max_degree,
    min_odd_closed_walk,
    path_graph,
    petersen,
    tensor_product,
)
from .functors import (
    Adjoint,
    Homomorphism,
    Subdivision,
    adjoint_witness_from_omega,
    adjoint_witness_to_omega,
    base_projection,
    omega,
    omega_prime,
    saturate_tail,
    subdivide,
    subdivision_embedding,
    squarefree_retraction,
    truncate_projection,
    walk_power,
)
from .homsearch import (
    HomSearchConfig,
    chromatic_number,
    hom_equivalent,
    hom_exists,
)
from .boxcomplex import Z2Complex, build_box, induced_map, make_complex
from .homology import betti_mod2, betti_of_complex, convolve, euler_characteristic
from .morse import (
    CollapseCertificate,
    MorseMatching,
    SaturationCollapse,
    ShortcutComplex,
    collapse,
    is_acyclic,
    pipeline,
    removal_phases,
    saturation_matching,
    shortcut_collapses,
)
from .approx import (
    ApproxMap,
    build_approx_map,
    carrier_check,
    diameter_bound,
    max_facet_diameter_sq,
)
