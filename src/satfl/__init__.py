"""Federated-learning scheduling simulator for LEO constellations.

A single ground station orchestrates asynchronous federated training over
a constellation of circular-orbit satellites. The package predicts
satellite passes, models the radio link, and compares scheduling policies
that decide when each satellite downloads and uploads model parameters.
"""

from importlib import resources

from .engine import SimResult, compare_runs, run_simulation
from .errors import ScenarioError
from .federation import fedavg_sync_aggregate, fedsat_aggregate
from .learning import (
    ComputeProfile,
    LocalDataset,
    evaluate_accuracy,
    generate_synthetic_task,
    local_sgd,
    partition_non_iid,
)
from .link import LinkBudget, comm_time, data_rate, path_loss, snr
from .orbital import (
    EARTH,
    ContactPlan,
    GroundStation,
    OrbitSpec,
    Pass,
    compute_contact_plan,
    elevation_angle,
    max_pass_distance,
    orbital_period,
    satellite_position_eci,
)
from .scenario import Scenario, load_scenario, with_overrides
from .scheduler import Mode, TransmissionSchedule, extract_schedule

__version__ = "0.1.0"


def bundled_scenario_path(name: str = "bremen_10sat"):
    """Filesystem path of a scenario file shipped with the package."""
    return resources.files(__name__) / "scenarios" / f"{name}.yaml"
