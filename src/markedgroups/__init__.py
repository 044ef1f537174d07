"""Desk-scale computational group theory around a family of tree groups.

Five largely independent layers:

words          free and involutive-alphabet words, Klein four-group reduction
grigorchuk     the sequence-parameterized tree groups, their word problem
lamplighter    exact wreath-product models and the four-letter dictionary
marked_space   Cayley balls, agreement radii, separators, convergence tables
circle_product graph products over difference-set graphs, minimality evidence

The cli module exposes the experiments as subcommands.
"""

from .words import (
    FreeWord,
    empty_word,
    enumerate_reduced,
    free_ball_count,
    free_concat,
    free_inverse,
    free_reduce,
    gen_commutator,
    gen_conjugate,
    gen_inverse,
    is_square,
    klein_reduce,
    word_from_str,
    word_to_str,
)
from .grigorchuk import (
    EventuallyConstantError,
    OmegaWord,
    TreeKeys,
    act,
    acts_trivially_to_depth,
    generator_action,
    is_trivial,
    level_permutation,
    limit_trivial,
    order_of,
    parse_omega,
    root_parity,
    route_constant,
    sections,
    translate_L_word,
)
from .lamplighter import (
    ExtLampElement,
    LampElement,
    abcd_images,
    alpha,
    eval_abcd_word,
    eval_st_word,
    ext_identity,
    ext_inverse,
    ext_multiply,
    lamp_identity,
    lamp_inverse,
    lamp_multiply,
    lamp_t_n,
    structure_report,
    t_n_word,
)
from .marked_space import (
    AgreeRadius,
    CayleyBall,
    MarkedGroupHandle,
    SeparatorReport,
    agree_radius,
    build_ball,
    convergence_table,
    find_separating_word,
    growth_sequence,
    make_handle,
    relation_agreement,
    relation_agreement_exhaustive,
    relation_set,
    write_convergence_csv,
    write_growth_csv,
)
from .handles import (
    ext_model_handle,
    free_handle,
    grig_handle,
    l_subgroup_handle,
    lamplighter_handle,
    trivial_handle,
)
from .circle_product import (
    GPWord,
    SSpec,
    WElement,
    build_s_sequence,
    commutator_trivial,
    gp_reduce,
    in_difference_set,
    racg_matrix_oracle,
    ts_adjacent,
    verify_difference_window,
    verify_minimality,
)

__version__ = "0.1.0"
