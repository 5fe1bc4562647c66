"""Execution-mode context shared by the symbolic and eager backends.

The dispatcher in :mod:`repro.backend.functional` consults this module to
decide whether an op call should create a graph node ("symbolic" mode) or
compute immediately ("eager" mode). Graph functions are written once
against the dispatcher and run in either mode — the mechanism behind the
paper's unified static/define-by-run interface (§4.2).
"""

from __future__ import annotations

import contextlib
import threading

_state = threading.local()

SYMBOLIC = "symbolic"
EAGER = "eager"


def _stack():
    if not hasattr(_state, "mode_stack"):
        _state.mode_stack = [EAGER]
    return _state.mode_stack


def get_mode() -> str:
    """Current execution mode: ``"symbolic"`` or ``"eager"``."""
    return _stack()[-1]


def is_symbolic() -> bool:
    return get_mode() == SYMBOLIC


@contextlib.contextmanager
def mode(new_mode: str):
    """Temporarily switch the execution mode."""
    assert new_mode in (SYMBOLIC, EAGER), new_mode
    _stack().append(new_mode)
    try:
        yield
    finally:
        _stack().pop()


def symbolic_mode():
    return mode(SYMBOLIC)


def eager_mode():
    return mode(EAGER)


# -- gradient recording (eager) ---------------------------------------------
def _grad_stack():
    if not hasattr(_state, "grad_stack"):
        _state.grad_stack = [True]
    return _state.grad_stack


def grad_enabled() -> bool:
    return _grad_stack()[-1]


@contextlib.contextmanager
def no_grad():
    """Disable eager tape recording (used during backward passes and
    inference fast paths)."""
    _grad_stack().append(False)
    try:
        yield
    finally:
        _grad_stack().pop()


# -- current symbolic graph ---------------------------------------------------
def _graph_stack():
    if not hasattr(_state, "graph_stack"):
        _state.graph_stack = []
    return _state.graph_stack


def push_graph(graph):
    _graph_stack().append(graph)


def pop_graph():
    return _graph_stack().pop()


def current_graph():
    stack = _graph_stack()
    if not stack:
        from repro.backend.graph import Graph

        stack.append(Graph(name="default"))
    return stack[-1]


# -- device scope --------------------------------------------------------------
def _device_stack():
    if not hasattr(_state, "device_stack"):
        _state.device_stack = ["/sim:cpu:0"]
    return _state.device_stack


@contextlib.contextmanager
def device(name: str):
    """Annotate nodes created in this scope with a (simulated) device."""
    _device_stack().append(name)
    try:
        yield
    finally:
        _device_stack().pop()


def current_device() -> str:
    return _device_stack()[-1]
