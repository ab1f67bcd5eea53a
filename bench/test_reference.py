"""Hand-derived checks of the benchmark's reference evaluator.

Run with ``python3 -m pytest bench/test_reference.py`` from the repository
root.
"""

import pytest

from reference import Net, conditional, exhaustive, one_hot_table, prob

XOR_GATE = {
    "nodes": [{"name": "x", "card": 2}, {"name": "y", "card": 2}, {"name": "o", "card": 2}],
    "edges": [["x", "y"], ["x", "o"], ["y", "o"]],
    "intervenable": ["y"],
    "targets": [{"name": "o", "desired": 1}],
    "cpds": {
        "x": {"parents": [], "rows": [[0.3, 0.7]]},
        "y": {"parents": ["x"], "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "o": {"parents": ["x", "y"], "rows": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]},
    },
}

SCREENING_CHAIN = {
    "nodes": [{"name": "y2", "card": 2}, {"name": "y1", "card": 2}, {"name": "o", "card": 2}],
    "edges": [["y2", "y1"], ["y1", "o"]],
    "intervenable": ["y2", "y1"],
    "targets": [{"name": "o", "desired": 1}],
    "cpds": {
        "y2": {"parents": [], "rows": [[0.4, 0.6]]},
        "y1": {"parents": ["y2"], "rows": [[0.8, 0.2], [0.25, 0.75]]},
        "o": {"parents": ["y1"], "rows": [[0.9, 0.1], [0.3, 0.7]]},
    },
}


def test_xor_gate_baseline_is_certain():
    assert prob(Net(XOR_GATE), {"o": 1}) == pytest.approx(1.0, abs=1e-12)


def test_xor_gate_class0_max():
    net = Net(XOR_GATE)
    # y forced to 0 makes o copy x (0.7); forced to 1 makes o = not x (0.3)
    forced = [prob(net, {"o": 1}, {"y": one_hot_table(net, "y", [], [v])}) for v in (0, 1)]
    assert forced == pytest.approx([0.7, 0.3], abs=1e-12)
    assert max(forced) == pytest.approx(0.7, abs=1e-12)


def test_xor_gate_class_inf_max():
    assert exhaustive(Net(XOR_GATE), ["y"], maximize=True) == pytest.approx(1.0, abs=1e-12)


def test_screening_chain_drivers_and_extremes():
    net = Net(SCREENING_CHAIN)
    assert net.drivers() == ["y1"]
    assert exhaustive(net, ["y1"], maximize=True) == pytest.approx(0.7, abs=1e-12)
    assert exhaustive(net, ["y1"], maximize=False) == pytest.approx(0.1, abs=1e-12)


def test_screening_chain_baseline_and_conditional():
    net = Net(SCREENING_CHAIN)
    # P(y1=1) = 0.4*0.2 + 0.6*0.75 = 0.53
    assert prob(net, {"y1": 1}) == pytest.approx(0.53, abs=1e-12)
    assert prob(net, {"o": 1}) == pytest.approx(0.47 * 0.1 + 0.53 * 0.7, abs=1e-12)
    assert conditional(net, {"o": 1}, {"y2": 0}) == pytest.approx(0.8 * 0.1 + 0.2 * 0.7, abs=1e-12)


def test_exhaustive_refuses_above_cap():
    with pytest.raises(ValueError):
        exhaustive(Net(SCREENING_CHAIN), ["y1", "y2"], maximize=True, cap=2)
