"""What every registered agent gets from the ``Agent`` base class: the
config / agent-level keyword split, the typed unknown-key error, and the
``flat_grads`` gate on the gradient-apply endpoint."""

import numpy as np
import pytest

from repro.agents import AGENTS
from repro.backend import XTAPE
from repro.spaces import FloatBox, IntBox
from repro.utils import RLGraphError

NET = [{"type": "dense", "units": 8}]


def _spaces(name):
    action = IntBox(3)
    if name == "sac":
        action = FloatBox(low=-np.ones(2, np.float32),
                          high=np.ones(2, np.float32))
    return dict(state_space=FloatBox(shape=(4,)), action_space=action)


@pytest.mark.parametrize("name", AGENTS.keys())
class TestEveryRegisteredAgent:
    def test_unknown_config_key_names_the_agent(self, name):
        cls = AGENTS.lookup(name)
        with pytest.raises(RLGraphError,
                           match=cls.__name__.removesuffix("Agent")) as err:
            cls(**_spaces(name), bogus_key=1, auto_build=False)
        assert "bogus_key" in str(err.value)

    def test_agent_level_keywords_reach_the_base(self, name):
        agent = AGENTS.from_spec(
            {"type": name, **_spaces(name)}, backend=XTAPE, optimize="basic",
            seed=5, discount=0.5, observe_flush_size=3, auto_build=False)
        assert agent.graph is None  # auto_build=False was honoured
        assert (agent.backend, agent.optimize) == (XTAPE, "basic")
        assert (agent.discount, agent.observe_flush_size) == (0.5, 3)
        assert agent.seeds.seed == 5
        assert set(agent.config) == set(type(agent).DEFAULT_CONFIG)

    def test_apply_endpoint_needs_the_fused_slab(self, name):
        for optimize, built in (("none", False), ("basic", True)):
            agent = AGENTS.lookup(name)(**_spaces(name), network_spec=NET,
                                        optimize=optimize)
            assert ("apply_gradients" in agent.graph.api) is built
            assert "compute_gradients" in agent.graph.api
