"""Numerical workbench for approximate ideal structures and K-theory.

The package verifies, at desk scale, the constructive machinery behind
approximate Mayer-Vietoris boundary maps: quantitative idempotent rounding,
delta-ideal structures, explicit lifts and their boundary classes, Whitehead
splittings, and K-theory products, over both dense matrix algebras and
sampled loop algebras.
"""

from .errors import ApproxKError
from .matcore import DEFAULT_TOL, Gate, Tol
from .subalg import Subalg, Subspace, amplify, from_basis, intersect
from .wedderburn import (
    K0Vec,
    K1Vec,
    WedderburnData,
    decompose,
    k0_class,
    similarity_witness,
)
from .loops import LoopAlg, LoopElem, arc_ideal, bump, power_z, winding_k1
from .funcalc import (
    RoundingCert,
    riesz_bound,
    riesz_idempotent,
    round_idempotent_in,
    round_invertible_in,
)
from .boundary import (
    IdealCert,
    LiftCert,
    SigmaReconstruct,
    SigmaWitness,
    UniformityReport,
    WhiteheadCert,
    boundary_class,
    boxplus,
    build_lift_v,
    certify_lift,
    check_delta_ideal_structure,
    check_inv_cut,
    discretize_homotopy,
    inverse_lift,
    iota_lift,
    sigma_reconstruct,
    sigma_witness,
    tensor_scale_ideal_structure,
    uniformity_probe,
    whitehead_split,
)
from .kprod import (
    ProductCheck,
    boundary_product_check,
    box_times,
    k0_product,
    nonunital_class_check,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxKError",
    "DEFAULT_TOL",
    "Gate",
    "Tol",
    "Subalg",
    "Subspace",
    "amplify",
    "from_basis",
    "intersect",
    "K0Vec",
    "K1Vec",
    "WedderburnData",
    "decompose",
    "k0_class",
    "similarity_witness",
    "LoopAlg",
    "LoopElem",
    "arc_ideal",
    "bump",
    "power_z",
    "winding_k1",
    "RoundingCert",
    "riesz_bound",
    "riesz_idempotent",
    "round_idempotent_in",
    "round_invertible_in",
    "IdealCert",
    "LiftCert",
    "SigmaReconstruct",
    "SigmaWitness",
    "UniformityReport",
    "WhiteheadCert",
    "boundary_class",
    "boxplus",
    "build_lift_v",
    "certify_lift",
    "check_delta_ideal_structure",
    "check_inv_cut",
    "discretize_homotopy",
    "inverse_lift",
    "iota_lift",
    "sigma_reconstruct",
    "sigma_witness",
    "tensor_scale_ideal_structure",
    "uniformity_probe",
    "whitehead_split",
    "ProductCheck",
    "boundary_product_check",
    "box_times",
    "k0_product",
    "nonunital_class_check",
]
