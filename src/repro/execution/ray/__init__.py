"""Distributed executors on the raylite actor engine (paper §4.1:
"RLgraph can be executed in distributed mode ... we also built a Ray
executor which can execute arbitrary RLgraph implementations on Ray's
centralized execution model")."""

from repro.execution.ray.actors import ApexWorkerActor, ReplayShardActor
from repro.execution.ray.apex_executor import ApexExecutor

__all__ = ["ApexWorkerActor", "ReplayShardActor", "ApexExecutor"]
