"""Base class of the baseline AQP methods.

Every baseline implements the unified :class:`repro.api.Estimator` protocol
(``fit(qf, Q, y)/predict/predict_one``) natively; :class:`AQPMethod` only
marks the baseline engines.
"""

from __future__ import annotations

from repro.api import Estimator


class AQPMethod(Estimator):
    """Base class for the baseline engines.

    Subclasses implement the :class:`~repro.api.Estimator` protocol
    (``fit``/``predict``/``predict_one``/``num_bytes``/``supports``).
    """

    name: str = "abstract-aqp"
