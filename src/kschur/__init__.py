"""Exact combinatorics of affine Schubert calculus.

Affine symmetric group and n-core machinery, horizontal and ribbon
strong strips, affine Bruhat countertableaux with n-cocharge,
t-deformed dual k-Schur bases with their Hall duals, the three
equivalent Pieri rules, and exhaustive checkers for the affine Monk
and rectangle Pieri conjectures cross-validated against the quantum
Monk formula.
"""

from .affine import (
    AffinePermutation,
    from_word,
    is_cyclically_decreasing,
    reduced_word,
    transposition,
)
from .cores import (
    NCore,
    a_map,
    act_s,
    c_inverse,
    c_map,
    core_of,
    core_to_word,
    cores_of_degree,
    is_ncore,
    rect_translation,
    strong_covers_down,
    strong_covers_up,
    w_core,
)
from .strips import (
    HorizontalStrongStrip,
    RibbonStrongStrip,
    StrongStrip,
    col_r,
    horizontal_strong_strips_from,
    marked_strong_covers,
    phi,
    psi,
    ribbon_strong_strips,
    strong_strips,
)
from .abctab import (
    ABC,
    count_abc,
    count_affine_factorizations,
    enumerate_abc,
    theta,
)
from .tableaux import (
    Tableau,
    cocharge,
    kostka_foulkes,
    kostka_number,
    semistandard_tableaux,
)
from .tpoly import TPoly
from .symfun import (
    SymF,
    dual_kschur,
    hall_pairing,
    h0t_in_m,
    kschur,
    m_sym,
    multiply,
    ptilde_in_m,
    schur,
    weak_kostka_foulkes,
)
from .schubert import (
    affine_monk_check,
    gw_invariant,
    homology_structure_constants,
    horizontal_pieri,
    quantum_monk,
    rect_pieri_check,
    sh_map,
    strong_pieri_cohomology,
    weak_pieri,
)

__version__ = "0.1.0"
