"""Julia sets of complex Henon maps near semi-parabolic parameters."""

from .errors import NumericalError, PreconditionError
from .henon import HenonParams, make_params
from .lab import HausdorffResult, hausdorff
from .normalform2d import NormalForm2D, petal_check, reduce, wss_graph
from .poly1d import LoopSample, PolyParams, caratheodory, green, normal_form_1d, poly_params
from .series import TruncSeries1, TruncSeries2, compose1, compose2, invert1
from .torus import SolidTorus, graph_transform, julia_from_sigma, sigma, torus_fixed_point

__all__ = [
    "NumericalError", "PreconditionError",
    "HenonParams", "make_params",
    "HausdorffResult", "hausdorff",
    "NormalForm2D", "petal_check", "reduce", "wss_graph",
    "LoopSample", "PolyParams", "caratheodory", "green", "normal_form_1d", "poly_params",
    "TruncSeries1", "TruncSeries2", "compose1", "compose2", "invert1",
    "SolidTorus", "graph_transform", "julia_from_sigma", "sigma", "torus_fixed_point",
]

__version__ = "0.1.0"
