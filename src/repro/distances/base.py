"""Distance function abstraction and registry.

DITA's versatility claim (challenge 4 in the introduction) is that one index
serves many similarity functions: the non-metric DTW, LCSS and EDR and the
metric Fréchet (plus ERP).  Every function here implements the same small
interface so the search/join framework, the SQL layer and the benchmarks can
swap them by name.

Conventions:

* ``compute(t, q)`` returns the exact distance (for LCSS we return the
  *dissimilarity* ``min(m, n) - LCSS`` so that "smaller is more similar"
  holds uniformly; see :mod:`repro.distances.lcss`).
* ``compute_threshold(t, q, tau)`` returns the exact distance when it is
  ``<= tau`` and ``math.inf`` otherwise — implementations may abandon early,
  which is the paper's ``DTW(T, Q, tau)`` optimization.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np


class TrajectoryDistance(ABC):
    """Interface shared by every trajectory similarity function.

    **Lower-bound contract.**  Every concrete subclass must either
    implement :meth:`lower_bound` — a cheap admissible bound with
    ``lower_bound(t, q) <= compute(t, q)`` for all inputs, which the
    pruning layers may rely on for exactness — or explicitly opt out by
    setting the class attribute ``lower_bound_exempt`` to a one-line
    justification string; the base method raises for a class that does
    neither.  ``tests/test_lower_bounds.py`` pins the admissibility
    property on random data.
    """

    #: registry key, e.g. ``"dtw"``
    name: str = "abstract"
    #: True for metric functions (triangle inequality holds), e.g. Fréchet.
    is_metric: bool = False
    #: set to a one-line justification to opt out of the lower-bound
    #: contract (see class docstring)
    lower_bound_exempt: Optional[str] = None

    @abstractmethod
    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        """Exact distance between point arrays ``t`` (m, d) and ``q`` (n, d)."""

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """Cheap admissible bound: ``lower_bound(t, q) <= compute(t, q)``."""
        if self.lower_bound_exempt is not None:
            return 0.0
        raise NotImplementedError(
            f"{type(self).__name__} must implement lower_bound or set "
            "lower_bound_exempt"
        )

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        """Distance if ``<= tau`` else ``math.inf``; default has no pruning."""
        d = self.compute(t, q)
        return d if d <= tau else math.inf

    def compute_threshold_batch(
        self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
    ) -> List[float]:
        """:meth:`compute_threshold` of every ``(ts[i], qs[i], taus[i])``,
        bit for bit — what the verifier hands a whole task's surviving
        pairs to.  The default loops; DTW and Fréchet run the pairs through
        shared kernel sweeps (:func:`repro.kernels.pairbatch.pair_batched`)."""
        return [self.compute_threshold(t, q, tau) for t, q, tau in zip(ts, qs, taus)]

    def similar(self, t: np.ndarray, q: np.ndarray, tau: float) -> bool:
        """Definition 2.3: ``f(T, Q) <= tau``."""
        return self.compute_threshold(t, q, tau) <= tau

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Callable[[], TrajectoryDistance]] = {}


def register_distance(name: str) -> Callable[[Type[TrajectoryDistance]], Type[TrajectoryDistance]]:
    """Class decorator adding a distance to the global registry under ``name``."""

    def wrap(cls: Type[TrajectoryDistance]) -> Type[TrajectoryDistance]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def get_distance(name: str, **kwargs) -> TrajectoryDistance:
    """Instantiate a registered distance by name (e.g. ``get_distance("dtw")``).

    Keyword arguments are forwarded to the constructor (e.g. ``epsilon`` for
    EDR, ``epsilon``/``delta`` for LCSS, ``gap`` for ERP).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown distance {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_distances() -> list:
    """Sorted registry keys."""
    return sorted(_REGISTRY)
