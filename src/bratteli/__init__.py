"""Ordered Bratteli diagrams, Vershik successor dynamics, marker rows from
the domination rule, and trapezoid-based construction of a full-shift
diagram.

The marker and trapezoid names load their modules, and numpy with them, on
first use, so that the diagram and Vershik layers start without numpy.
"""

from importlib import import_module

from .diagram import (BVDParseError, DiagramValidationError, Edge,
                      OrderedBratteliDiagram, PathPrefix, Violation,
                      deserialize, empty_prefix, parse_path_spec,
                      prefix_from_indices, read_bvd, serialize, to_dot)
from .vershik import (ProfilePoint, all_prefixes, extension_count,
                      image_diameter_profile, interior_witness,
                      is_maximal_prefix, is_minimal_prefix, maximal_prefixes,
                      minimal_prefixes, orbit, predecessor,
                      prefix_set_diameter, successor)

# name -> module of the names loaded on first use (PEP 562 __getattr__)
_LAZY = {
    **dict.fromkeys(("GenericMarkerRows", "MarkedWord", "MarkerRow", "dominates",
                     "fill_outside_forbidden", "infinite_order_positions",
                     "mark_all_rows", "render_marked_word", "row_markers",
                     "shift_row", "upward_adjust"), "markers"),
    **dict.fromkeys(("ArrayWindow", "InsufficientWindowError", "Trapezoid",
                     "TrapezoidRow", "WidenSchedule", "build_diagram",
                     "canonical_text", "decompose", "enumerate_level", "k_blocks",
                     "path_to_window", "render_trapezoid", "trapezoid_at",
                     "trapezoid_from_text", "window_shift_mismatches"), "trapezoids"),
}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
