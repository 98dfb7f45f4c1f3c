"""Reduction chain from omega-PCP through weighted automata into word, matrix, and braid games."""

from .pcp import PcpInstance, parse_instance, desynchronize
from .automata import build_solution_checker, reverse, unfold_self_loops
from .wordgames import build_weighted_word_game, to_pair_game, binarize
from .matrices import build_matrix_game
from .braids import garside_nf, braids_equal
from .engine import attacker_wins_within, play, crosscheck
from .domains import build_pipeline

__version__ = "0.1.0"

__all__ = [
    "PcpInstance",
    "parse_instance",
    "desynchronize",
    "build_solution_checker",
    "reverse",
    "unfold_self_loops",
    "build_weighted_word_game",
    "to_pair_game",
    "binarize",
    "build_matrix_game",
    "garside_nf",
    "braids_equal",
    "attacker_wins_within",
    "play",
    "crosscheck",
    "build_pipeline",
]
