"""Complex Hadamard matrices, Butson classes and quantum permutation invariants.

The package splits into five layers: exact arithmetic in Z[zeta_l], held
as integer group-algebra coefficients whose every zero test, in
:mod:`qperm.hadamard` as elsewhere, is evaluation at the embeddings
zeta -> r modulo primes (:mod:`qperm.scalars`, :mod:`qperm._exact`),
partition combinatorics and Weingarten calculus (:mod:`qperm.partitions`),
Hadamard matrix construction, equivalence and Butson obstructions
(:mod:`qperm.hadamard`), magic unitaries and Hom-space invariants
(:mod:`qperm.quantum`), and concrete matrix models (:mod:`qperm.models`).
The :mod:`qperm.cli` module exposes everything as ``qperm`` subcommands.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    CertificationFailed,
    DegenerateParameter,
    MalformedMatrix,
    MethodDisagreement,
    NotBlockDiagonal,
    NotHadamard,
    OrderTooLarge,
    ParseError,
    QpermError,
    RankAmbiguous,
    ShapeMismatch,
    SingularGram,
    UnknownName,
    VerifyFailed,
)
from .scalars import NormVerdict, hermitian_norm_solvable
from .partitions import (
    GramWeingarten,
    PartitionFamily,
    SetPartition,
    bell_number,
    catalan_number,
    char_moment,
    enum_partitions,
    free_bessel_even_moment,
    gram_det_classical,
    gram_det_exact,
    gram_det_free,
    gram_weingarten,
    integrate_monomial,
    truncated_char_moment,
)
from .hadamard import (
    EnumerationResult,
    Hadamard,
    bjorck_froberg,
    butson_enumerate,
    catalog_names,
    dephase,
    dita,
    equivalent,
    f4q,
    f6_three_two,
    f6_two_three,
    fingerprint,
    fourier,
    haagerup,
    i_g_estimate,
    is_regular,
    level,
    named,
    obstruction_table,
    obstructions,
    one_norm,
    petrescu,
    read_but,
    read_cmat,
    strongest_obstruction,
    tao,
    tensor,
    write_but,
    write_cmat,
)
from .quantum import (
    InvariantSeries,
    MagicUnitary,
    check_magic,
    fix_dim_direct,
    g_tensor,
    hom_dim_via_g,
    image_commutative,
    invariants,
    magic_from_hadamard,
    orbit_components,
    permutation_magic,
    poincare_series,
)
from .models import (
    SpinElement,
    check_so3q_relations,
    free_hg_formula,
    free_hg_oracle,
    klein_fourier,
    model_word_expectation,
    pauli_basis,
    pauli_magic,
    su2_sample,
)

__all__ = [n for n in dir() if not n.startswith("_")]
