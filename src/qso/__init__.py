"""Quadratic stochastic operators on finite simplices.

Validation and application of QSO tensors, Volterra detection with the
canonical skew-symmetric form, classification of orthogonality-preserving
operators on the 2-simplex, permutation conjugacy, associativity of the
induced genetic algebra, finite measure kernels, and trajectory iteration.

The namespace is lazy (PEP 562): ``import qso`` loads no submodule, and
``qso.<name>`` imports the module that defines ``<name>`` on first use and
keeps the value here, so later lookups are plain attribute reads. A
one-command process such as ``qso validate`` thus loads only what it uses.
"""

__version__ = "0.1.0"

#: Each submodule and the public names it defines, the one table of the
#: namespace: ``__all__``, ``__dir__`` and ``__getattr__`` all read it.
_EXPORTS = {
    "algebra": (
        "EPS_ASSOC",
        "RefutationReport",
        "assoc_solutions_v2",
        "associator_residual",
        "is_associative",
        "product",
        "refute_associativity",
        "v2_condition_system",
    ),
    "cli": (),
    "conjugacy": ("Permutation", "conjugacy_classes", "conjugate", "permute_point"),
    "core": (
        "EPS_SUPP",
        "EPS_VAL",
        "QsoTensor",
        "SimplexPoint",
        "abs_continuous",
        "apply",
        "orthogonal",
        "support",
        "validate",
    ),
    "dynamics": ("Trajectory", "fixed_points_on_vertices", "iterate", "write_trajectory_csv"),
    "errors": (
        "DimensionMismatch",
        "DimensionUnsupported",
        "InvalidFamily",
        "InvalidPermutation",
        "InvalidPoint",
        "InvalidSkew",
        "NegativeCoefficient",
        "NotOrthogonalityPreserving",
        "NotStochastic",
        "NotSymmetric",
        "NotVolterra",
        "ParameterOutOfRange",
        "QsoError",
        "TooLarge",
        "VertexImageNotVertex",
    ),
    "kernel": (
        "DiscreteMeasure",
        "FiniteKernel",
        "kernel_apply",
        "kernel_is_volterra",
        "kernel_volterra_oracle",
        "volterra_violation_witness",
    ),
    "orthopreserve": (
        "FAMILY_VERTEX_IMAGES",
        "OpFamilySpec",
        "classify_op",
        "is_orthogonality_preserving",
        "op_family",
    ),
    "serialize": (),
    "volterra": (
        "SkewMatrix",
        "certificate_points",
        "check_abs_continuity_property",
        "from_canonical",
        "is_volterra",
        "to_canonical",
        "volterra_certificate",
    ),
}

# every public name and every submodule name -> the submodule to import
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
