"""Call-graph guards: the routes that a check compares stay independent.

Every public function of the numerical layers is wrapped wherever a
quasiprob module looks it up, and WaveFunction.__call__ on the class, as
perfbench/layertrace.py does for timing; each call becomes a node in a tree,
so a test can ask which functions one route reached below it.
"""

import inspect
import sys

import numpy as np
import pytest

import quasiprob.cli  # noqa: F401  (loads every layer)
from quasiprob import tomography
from quasiprob.numerics import Grid1D, SampledFunction1D, square_grid
from quasiprob.states import FOCK_GRID, DirectionAB, WaveFunction, gaussian_state, oscillator_eigenstate, sampled_state
from quasiprob.wigner import wigner_transform

LAYERS = ("numerics", "states", "wigner", "tomography")
EVALUATE = "states.WaveFunction.__call__"
GRID = square_grid(-6.0, 6.0, 48)
DIRECTIONS = [DirectionAB(0.6, 0.8), DirectionAB(0.96, -0.28)]  # both lookup branches


class Node:
    def __init__(self, name):
        self.name = name
        self.children = []

    def reached(self):
        """Names of every function called at or below this node."""
        out = {self.name}
        for c in self.children:
            out |= c.reached()
        return out


@pytest.fixture
def trace(monkeypatch):
    root = Node("<root>")
    stack = [root]

    def wrap(name, fn):
        def traced(*args, **kwargs):
            node = Node(name)
            stack[-1].children.append(node)
            stack.append(node)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return traced

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"quasiprob.{layer}"]
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = wrap(f"{layer}.{attr}", fn)  # the wrapper keeps fn alive
    for modname, mod in list(sys.modules.items()):
        if modname == "quasiprob" or modname.startswith("quasiprob."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    monkeypatch.setattr(WaveFunction, "__call__", wrap(EVALUATE, WaveFunction.__call__))
    return root


def reached(nodes):
    out = set()
    for n in nodes:
        out |= n.reached()
    return out


@pytest.fixture(scope="module")
def states():
    g = Grid1D(-16.0, 16.0, 256)
    sampled = sampled_state(SampledFunction1D(g, gaussian_state(0.5, -0.3, 1.0)(g.points)))
    return {"closed": oscillator_eigenstate(1), "file": sampled}


def test_marginal_of_quasi_never_evaluates_the_state(trace):
    f = wigner_transform(oscillator_eigenstate(1), GRID)
    trace.children.clear()
    for d in DIRECTIONS:
        tomography.marginal_of_quasi(f, d, GRID.gx)
    assert [c.name for c in trace.children] == ["tomography.marginal_of_quasi"] * 2
    assert EVALUATE not in reached(trace.children)


@pytest.mark.parametrize("kind", ["closed", "file"])
def test_quantum_marginal_reaches_no_distribution(trace, states, kind):
    for d in DIRECTIONS:
        tomography.quantum_marginal(quasiprob.states.fock_expansion(states[kind]), [d], GRID.gx)
    seen = reached(trace.children)
    assert EVALUATE in seen
    assert not seen & {"wigner.wigner_transform", "tomography.marginal_of_quasi", "tomography.fhat_on_ray"}


@pytest.mark.parametrize("zn", [48, 512, 4096])
def test_quantum_marginal_work_does_not_grow_with_the_z_grid(trace, monkeypatch, states, zn):
    # the route reads psi once per search, on the fixed coefficient grid,
    # and never through the characteristic function
    points = []
    evaluate = WaveFunction.__call__

    def counted(self, x):
        points.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(WaveFunction, "__call__", counted)
    zgrid = Grid1D(-16.0, 16.0, zn)
    for d in DIRECTIONS:
        points.clear()
        tomography.quantum_marginal(quasiprob.states.fock_expansion(states["file"]), [d], zgrid)
        assert sum(points) == FOCK_GRID.n
    points.clear()
    tomography.quantum_marginal(quasiprob.states.fock_expansion(states["file"]), DIRECTIONS, zgrid)
    assert sum(points) == FOCK_GRID.n
    tomography.quantum_marginal(quasiprob.states.fock_expansion(states["closed"]), [DIRECTIONS[0]], zgrid)
    assert "wigner.characteristic_function" not in reached(trace.children)


def test_j2m_sides_share_only_ft_core(trace):
    f = wigner_transform(oscillator_eigenstate(1), GRID)
    trace.children.clear()
    for d in DIRECTIONS:
        tomography.verify_j2m(f, d)
    for call in trace.children:
        names = {c.name for c in call.children}
        assert names == {"tomography.marginal_of_quasi", "numerics.ft_core", "tomography.fhat_on_ray"}
        lhs = reached(c for c in call.children if c.name != "tomography.fhat_on_ray")
        rhs = reached(c for c in call.children if c.name == "tomography.fhat_on_ray")
        assert lhs & rhs <= {"numerics.ft_core"}


@pytest.mark.parametrize("kind", ["closed", "file"])
def test_direction_residual_routes_share_only_stateless_primitives(trace, states, kind):
    # the state enters as its expansion, so below the residuals neither
    # route evaluates psi and the two share no function
    psi = states[kind]
    f = wigner_transform(psi, GRID)
    fock = quasiprob.states.fock_expansion(psi)
    trace.children.clear()
    tomography.direction_residuals(f, fock, [0.3, 2.0])
    assert [c.name for c in trace.children] == ["tomography.direction_residuals"]
    call = trace.children[0]
    assert {c.name for c in call.children} == {"tomography.marginal_of_quasi", "tomography.quantum_marginal"}
    quasi = reached(c for c in call.children if c.name == "tomography.marginal_of_quasi")
    state = reached(c for c in call.children if c.name == "tomography.quantum_marginal")
    assert quasi & state == set()
    assert EVALUATE not in reached(trace.children)
