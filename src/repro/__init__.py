"""repro — a full reproduction of *BlueScale: A Scalable Memory
Architecture for Predictable Real-Time Computing on Highly Integrated
SoCs* (Jiang et al., DAC 2022).

Top-level convenience re-exports cover the most common entry points;
see the subpackages for the full API:

* :mod:`repro.core` — BlueScale itself (Scale Elements, quadtree).
* :mod:`repro.analysis` — periodic resource model, Theorems 1–2,
  interface selection, hierarchical composition.
* :mod:`repro.interconnects` — the baselines (AXI-IC^RT, BlueTree,
  BlueTree-Smooth, GSMTree-TDM/-FBSP).
* :mod:`repro.memory`, :mod:`repro.clients`, :mod:`repro.sim`,
  :mod:`repro.soc` — the simulation substrate.
* :mod:`repro.hardware` — area/power/frequency models (Table 1, Fig. 5).
* :mod:`repro.workloads` — automotive case-study task sets (Fig. 7).
* :mod:`repro.runtime` — the trial-execution runtime (specs,
  serial/parallel executors, the shared metrics schema).
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.analysis import (
    AdmissionSession,
    ResourceInterface,
    SystemModel,
    compose,
    is_schedulable,
    select_interface,
)
from repro.core import BlueScaleInterconnect, ScaleElement

# repro.sim initialises before repro.soc: its batched backend imports
# repro.soc, which imports repro.sim submodules in turn.
import repro.sim  # noqa: E402,F401
from repro.soc import SoCSimulation, TrialResult  # noqa: E402
from repro.tasks import PeriodicTask, TaskSet
from repro.topology import TreeTopology, binary_tree, quadtree

__version__ = "1.0.0"

__all__ = [
    "AdmissionSession",
    "ResourceInterface",
    "SystemModel",
    "compose",
    "is_schedulable",
    "select_interface",
    "BlueScaleInterconnect",
    "ScaleElement",
    "SoCSimulation",
    "TrialResult",
    "PeriodicTask",
    "TaskSet",
    "TreeTopology",
    "binary_tree",
    "quadtree",
    "__version__",
]
