"""Flat affine group schemes over a discrete valuation ring.

Groups are finitely presented Hopf algebras over Q[pi] localized at (pi);
the package computes dilatations at subgroups of the special fibre, the
matrices representing them faithfully, schematic images of morphisms, and
triviality levels of small connections on the line.
"""

from .blowup import (automatic_member, automatic_truncation, check_constancy,
                     neron_blowup, partial_blowup, standard_sequence,
                     strict_transform, universal_lift)
from .config import DEFAULT_LIMITS, Limits, budget
from .dgal import Connection, formal_solution, galois_diagnostic, triviality_mod
from .errors import NeronError
from .groebner import Ideal
from .hopf import (GroupMorphism, HopfPresentation, check_flat, check_hopf,
                   check_morphism, generic_fibre, isomorphism_report, prune,
                   reduce_mod, special_fibre)
from .images import image_hopf, saturated_image, triptych
from .library import (additive_group, borel2, general_linear,
                      multiplicative_group, product, roots_of_unity,
                      special_linear, trivial_group, twisted_multiplicative)
from .parser import parse, parse_poly, print_file, print_group
from .reps import (RepMatrix, conormal_rep, direct_sum, identity_blowup_rep,
                   line_blowup_rep, rescaled_rep, stabilizer_ideal,
                   sum_faithful, validate_rep, verify_faithful)
from .ring import Poly, PolyRing, Substitution, format_poly

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
