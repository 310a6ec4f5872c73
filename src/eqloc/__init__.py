"""eqloc: finite simplicial sets, diagram categories, the generalized small
object argument, and equivariant localization functors at desk scale.

The package is organized along the pipeline:

- simplicial: normal forms, finite simplicial sets, maps, hom enumeration
  and the fill test `lifts` on the hom search's slot plan
- glue: coproducts, quotients, pushouts, products and pullbacks
- cat: finite index categories, diagrams, (co)limits, tensor/cotensor,
  mapping complexes
- orbits: orbit extraction and orbit categories of a diagram
- soa: factorization setups, instrumented classes, lifting search, the
  generalized small object argument
- homotopy: Kan conditions, homotopy groups at a cap, equivariant
  weak-equivalence and properness probes, cylinders and cones
- localization: horns of a class, the instrumented class K, localization
  functors and locality probes, fixed-pointwise localization
- documents, cli: the shared on-disk format and the batch front end
"""

from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    boundary_inclusion,
    empty_simplicial_set,
    hom_set,
    horn,
    horn_inclusion,
    identity_map,
    lifts,
    point,
    standard_simplex,
    validate,
)
from .glue import coproduct, product, pullback, pushout, quotient
from .cat import (
    Diagram,
    DiagramMap,
    SmallCategory,
    colim,
    cotensor,
    free_diagram,
    hom_D,
    hom_complex,
    tensor,
    wrap_smap,
    wrap_sset,
)
from .orbits import (
    OrbitCategory,
    OrbitMap,
    is_orbit,
    orbit_category_of,
    orbit_point_diagram,
    orbit_setup,
)
from .soa import (
    Budget,
    FactorizationResult,
    Instrumentation,
    Square,
    retract_witness,
    rlp_check,
    setup_I,
    setup_J,
    setup_from_set,
    setup_union,
    small_object_argument,
    soa_functorial,
)
from .homotopy import (
    HomotopyReport,
    Verdict,
    cone,
    cylinder,
    homotopy_report,
    is_fibration_equivariant,
    is_kan,
    is_null_homotopic,
    is_weq_equivariant,
    null_factorization,
    pi0,
    pi_n,
    properness_probe,
)
from .localization import (
    LocalizationCaps,
    LocalizationResult,
    LocalizationSpec,
    class_K,
    extend_to_local,
    fixed_point_locality_report,
    hor_F_instrumentation,
    horns_of,
    is_S_equivalence,
    is_S_local,
    localize,
)

__version__ = "0.1.0"
