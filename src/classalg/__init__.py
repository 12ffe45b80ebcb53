"""Exact-arithmetic algebras of conjugacy classes of partial symmetries.

The package builds finite truncations of the algebra spanned by classes of
partial elements of (possibly decorated) symmetric groups, counts all
structure constants over class members, each class the conjugation orbit
of its label's representative, and checks the identities tying them to
centers of group algebras as exact integer equalities.  The brute-force
references that enumerate whole levels live in classalg.oracles and are
imported from there: the package exports none of them.

The names below are loaded from their submodules on first access, so
importing the package, or one submodule such as classalg.cli, loads only
what is used.
"""

import importlib

_EXPORTS = {
    "center_algebra": "center_product s_constant",
    "correspondence": (
        "AuditReport AuditWitness FamilySpec admissibility_audit "
        "forward_substitute parse_family phi_preimage xi_closed_form"
    ),
    "errors": (
        "BudgetExceeded ClassAlgError GroupTableError InvalidLabel "
        "LevelMismatch NoIdentity NoInverse NotAssociative NotClosed "
        "ParseError UnknownBuiltin WrongBaseGroup"
    ),
    "finite_group": "TRIVIAL FiniteGroup builtin_group load_group load_group_file",
    "partial_algebra": (
        "AlgebraVector OmegaLabel PartialElement basis_vector ik_product "
        "p_constant partial_str project truncation_basis"
    ),
    "wreath": (
        "ClassLabel GroupElement class_label_representative class_members "
        "class_size compose decode element_budget element_str encode "
        "enumerate_elements labels_with_alpha_up_to level_group mask_points "
        "mask_str"
    ),
}
# the submodule of each exported name
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
