"""Skyline substrate: dominance helpers and four skyline algorithms.

The eclipse transformation algorithm (Section III of the paper) reduces the
eclipse query to an ordinary skyline computation on mapped points, so a solid
skyline substrate is part of the reproduction.  Four algorithms with
different trade-offs are provided, all computing the *minimisation* skyline
(smaller attribute values are better):

* :func:`skyline_bnl` — block-nested-loop (Börzsönyi et al.), the classic
  ``O(n^2)`` worst-case baseline.
* :func:`skyline_sfs` — sort-filter-skyline: pre-sorting by the attribute sum
  guarantees no point is ever removed from the window.
* :func:`skyline_sweep_2d` — the ``O(n log n)`` two-dimensional sweep used by
  Algorithm 2 of the paper.
* :func:`skyline_divide_conquer` — Bentley's multidimensional
  divide-and-conquer (the "ECDF algorithm" cited as [3]), the
  ``O(n log^{d-1} n)`` routine used by Algorithm 3.

:func:`skyline` dispatches among them.  The top-level package re-exports it
as :func:`repro.skyline_query` so that the name ``repro.skyline`` stays this
subpackage (``import repro.skyline.api`` works); calling the subpackage
itself (``repro.skyline(points)`` — the historical spelling, when the
function used to shadow the module) still works through a deprecation shim.
"""

import sys as _sys
import types as _types
import warnings as _warnings

from repro.skyline.dominance import (
    dominates,
    dominates_or_equal,
    dominance_count,
    is_skyline_point,
)
from repro.skyline.kernels import (
    block_sfs_indices,
    dominated_mask,
    dominates_matrix,
    monotone_sort_order,
    self_dominated_mask,
)
from repro.skyline.incremental import (
    SkylineDelta,
    delete_update,
    insert_update,
    remap_after_delete,
)
from repro.skyline.bnl import skyline_bnl
from repro.skyline.sfs import skyline_sfs
from repro.skyline.sweep2d import skyline_sweep_2d
from repro.skyline.divide_conquer import skyline_divide_conquer
from repro.skyline.api import skyline, skyline_indices

#: Shadow-free alias: ``repro.skyline`` stays the subpackage, the function
#: travels to the top level under this name.
skyline_query = skyline


class _CallableSkylineModule(_types.ModuleType):
    """Back-compat shim for the pre-refactor ``repro.skyline`` *function*.

    Until the API redesign, ``from repro import skyline`` yielded the
    skyline function, which shadowed this subpackage and broke
    ``import repro.skyline.x as y``.  The module is now callable so the old
    spelling keeps working (with a deprecation warning) while the name
    resolves to the subpackage.
    """

    def __call__(self, *args, **kwargs):
        _warnings.warn(
            "calling `repro.skyline` as a function is deprecated; use "
            "`repro.skyline_query` (or `repro.skyline.skyline`) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return skyline(*args, **kwargs)


_sys.modules[__name__].__class__ = _CallableSkylineModule

__all__ = [
    "skyline_query",
    "dominates",
    "dominates_or_equal",
    "dominance_count",
    "is_skyline_point",
    "dominated_mask",
    "dominates_matrix",
    "block_sfs_indices",
    "monotone_sort_order",
    "self_dominated_mask",
    "SkylineDelta",
    "delete_update",
    "insert_update",
    "remap_after_delete",
    "skyline_bnl",
    "skyline_sfs",
    "skyline_sweep_2d",
    "skyline_divide_conquer",
    "skyline",
    "skyline_indices",
]
