"""Exact counting and enumeration of Dyck paths in rectangles."""

from .bizley import bizley_count, partitions, phi
from .christoffel import (
    delta,
    delta_closed_lower,
    delta_closed_upper,
    q_boxes,
    special_r,
)
from .comparison import (
    rule2_terms,
    theorem1_count,
    theorem2_count,
    through_box_split,
)
from .decomposition import (
    decompose,
    expr_stats,
    h_value,
    render,
)
from .diagrams import (
    Diagram,
    TooLarge,
    as_diagram,
    christoffel_diagram,
    count_paths,
    count_rect,
    diagram_to_word,
    enumerate_paths,
    format_diagram,
    is_valid_word,
    parse_diagram,
    word_to_diagram,
)
from .formulas import (
    avoidance_value,
    ballot_brute,
    ballot_value,
    binomial,
    catalan,
    coprime_catalan,
    fuss_catalan,
    prime_rect,
)

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "TooLarge",
    "as_diagram",
    "avoidance_value",
    "ballot_brute",
    "ballot_value",
    "binomial",
    "bizley_count",
    "catalan",
    "christoffel_diagram",
    "coprime_catalan",
    "count_paths",
    "count_rect",
    "decompose",
    "delta",
    "delta_closed_lower",
    "delta_closed_upper",
    "diagram_to_word",
    "enumerate_paths",
    "expr_stats",
    "format_diagram",
    "fuss_catalan",
    "h_value",
    "is_valid_word",
    "parse_diagram",
    "partitions",
    "phi",
    "prime_rect",
    "q_boxes",
    "render",
    "rule2_terms",
    "special_r",
    "theorem1_count",
    "theorem2_count",
    "through_box_split",
    "word_to_diagram",
]
