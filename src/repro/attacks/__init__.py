"""Attack construction: vectors, algebraic baselines, topology poisoning.

:mod:`repro.attacks.vector` defines the :class:`AttackVector` exchanged
between the formal models, the numerical estimator and the reports.
:mod:`repro.attacks.liu` implements the classical algebraic UFDI
constructions of Liu, Ning & Reiter (``a = Hc``), used as baselines and
as independent ground truth for the SMT model.
:mod:`repro.attacks.topology_attack` builds numerically coordinated
topology-poisoning attacks from an operating point.
"""

from repro.attacks.vector import AttackVector
from repro.attacks.liu import perfect_knowledge_attack, restricted_access_attack
from repro.attacks.topology_attack import coordinated_topology_attack
from repro.attacks.overload import (
    fake_congestion_attack,
    flow_shift_attack,
    overload_masking_attack,
)

__all__ = [
    "AttackVector",
    "coordinated_topology_attack",
    "fake_congestion_attack",
    "flow_shift_attack",
    "overload_masking_attack",
    "perfect_knowledge_attack",
    "restricted_access_attack",
]
