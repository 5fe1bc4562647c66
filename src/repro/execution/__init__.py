"""Execution layer: workers, device strategies, distributed executors."""

from repro.execution.parallel import (
    ParallelSpec,
    notify_weight_listeners,
    resolve_parallel_spec,
)
from repro.execution.worker import (
    NStepAccumulator,
    SingleThreadedWorker,
    WorkerStats,
    build_vector_env,
)
from repro.execution.executor import Executor, RunResult
from repro.execution.sync_batch_executor import A2CRolloutActor, SyncBatchExecutor
from repro.execution.supervision import (
    BackoffPolicy,
    ReplicaFactory,
    RestartEvent,
    SupervisionError,
    SupervisionSpec,
    Supervisor,
    resolve_supervision_spec,
)
from repro.execution.checkpointing import (
    CheckpointError,
    CheckpointManager,
    CheckpointSpec,
    ResumableTrainer,
    resolve_checkpoint_spec,
)
from repro.execution.learner_group import (
    LearnerGroup,
    LearnerReplicaActor,
    LearnerSpec,
    resolve_learner_spec,
)

__all__ = ["NStepAccumulator", "SingleThreadedWorker", "WorkerStats",
           "Executor", "RunResult", "A2CRolloutActor", "SyncBatchExecutor",
           "ParallelSpec", "resolve_parallel_spec", "build_vector_env",
           "notify_weight_listeners",
           "BackoffPolicy", "ReplicaFactory", "RestartEvent",
           "SupervisionError", "SupervisionSpec", "Supervisor",
           "resolve_supervision_spec",
           "CheckpointError", "CheckpointManager", "CheckpointSpec", "ResumableTrainer",
           "resolve_checkpoint_spec",
           "LearnerGroup", "LearnerReplicaActor", "LearnerSpec",
           "resolve_learner_spec"]
