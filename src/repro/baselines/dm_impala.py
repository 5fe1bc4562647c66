"""DeepMind-reference IMPALA baseline.

The paper's Fig. 9 gap (10–15 %) traces to two reference-code artifacts:
redundant per-step actor variable assignments and preprocessing placed
after unstaging (higher variance). This wrapper reproduces only the
first: it pins the shared runner to the reference actor's redundant
assignments, and removing them is exactly bench E8.
"""

from __future__ import annotations

from typing import Callable

from repro.execution.impala_runner import IMPALARunner


class DMReferenceIMPALARunner(IMPALARunner):
    """IMPALARunner with the reference actor's redundant assignments."""

    def __init__(self, learner_agent, agent_factory: Callable,
                 env_factory: Callable, **kwargs):
        kwargs.pop("redundant_assignments", None)
        super().__init__(learner_agent, agent_factory, env_factory,
                         redundant_assignments=True, **kwargs)
