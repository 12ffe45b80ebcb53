"""Exact-arithmetic algebras of conjugacy classes of partial symmetries.

The package builds finite truncations of the algebra spanned by classes of
partial elements of (possibly decorated) symmetric groups, counts all
structure constants over class members, each class the conjugation orbit
of its label's representative, and checks the identities tying them to
centers of group algebras as exact integer equalities.  The brute-force
references that enumerate whole levels live in classalg.oracles.
"""

from .center_algebra import (
    center_basis_vector,
    center_product,
    class_size,
    s_constant,
)
from .correspondence import (
    AuditReport,
    AuditWitness,
    FamilySpec,
    InversionRecord,
    MainLemmaRecord,
    admissibility_audit,
    forward_substitute,
    parse_family,
    phi,
    phi_preimage,
    verify_inversion,
    verify_main_lemma,
    xi_closed_form,
)
from .errors import (
    BudgetExceeded,
    ClassAlgError,
    GroupTableError,
    InvalidLabel,
    LevelMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    ParseError,
    UnknownBuiltin,
    WrongBaseGroup,
)
from .finite_group import (
    TRIVIAL,
    FiniteGroup,
    builtin_group,
    conjugacy_classes,
    load_group,
    load_group_file,
)
from .oracles import (
    center_product_oracle,
    conjugation_orbits,
    enumerate_omega_class,
    enumerate_partial_elements,
    omega_of,
    p_constant_all_representatives,
    partial_orbit_oracle,
    phi_oracle,
    pmultiply,
    product_oracle,
    xi_count_oracle,
)
from .partial_algebra import (
    AlgebraVector,
    OmegaLabel,
    PartialElement,
    basis_vector,
    ik_product,
    p_constant,
    partial_element,
    partial_str,
    project,
    truncation_basis,
)
from .wreath import (
    ClassLabel,
    GroupElement,
    class_label,
    class_label_representative,
    class_members,
    compose,
    conjugate,
    d_type_membership,
    decode,
    element_budget,
    element_str,
    encode,
    enumerate_elements,
    group_order,
    identity_element,
    inverse,
    labels_with_alpha_up_to,
    level_group,
    mask_points,
    mask_str,
    multiply,
    support,
)

__version__ = "0.1.0"
