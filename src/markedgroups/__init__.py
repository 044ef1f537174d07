"""Desk-scale computational group theory around a family of tree groups.

Five largely independent layers:

words          free and involutive-alphabet words, Klein four-group reduction
grigorchuk     the sequence-parameterized tree groups, their word problem
lamplighter    exact wreath-product models and the four-letter dictionary
marked_space   Cayley balls, growth, agreement radii, separating words
circle_product graph products over difference-set graphs, minimality evidence

The cli module exposes the experiments as subcommands.
"""

from .words import (
    FreeWord,
    empty_word,
    enumerate_reduced,
    free_ball_count,
    free_concat,
    free_reduce,
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
    generator_action,
    is_trivial,
    limit_trivial,
    order_of,
    parse_omega,
    root_parity,
    route_constant,
    sections,
    translate_L_word,
)
from .lamplighter import (
    LampElement,
    alpha,
    eval_st_word,
    lamp_identity,
    lamp_inverse,
    lamp_multiply,
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
    find_separating_word,
    growth_sequence,
    make_handle,
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
    ts_adjacent,
    verify_difference_window,
    verify_minimality,
)

__version__ = "0.1.0"
