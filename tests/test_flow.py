"""The blocking-flow engine on random small capacitated networks.

Every node subset holding the source but not the sink is a cut, so on
at most 8 nodes the minimum cut value and the set of minimum cuts are
found by brute force.  On each network's ``_layout``, the value
``_max_flow`` returns must equal that minimum, the residual capacities
it leaves must describe a feasible flow, the nodes its last levels
reach must be the intersection of the source sides of all minimum cuts,
and the nodes ``_reaching`` reports must be those outside their union.
Examples are derandomized, so every run tests the same networks.
"""

import itertools
import signal
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from edgecone.cone import _layout, _max_flow, _reaching

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@contextmanager
def time_limit(seconds: float):
    """Turn a blocking-flow loop that stops making progress into a test
    failure instead of a hang."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # raised anew so the report holds no frame of the interrupted loop
        raise AssertionError(f"max flow did not finish within {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def networks(draw):
    """Node count, source 0, sink ``nodes - 1`` and ``(tail, head,
    capacity)`` arcs, parallel and antiparallel ones included."""
    nodes = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    arcs = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, 4)),
                         max_size=20))
    return nodes, [(u, v, c) for (u, v), c in arcs]


def cut_capacity(arcs, side) -> int:
    return sum(c for u, v, c in arcs if u in side and v not in side)


@PROPERTY
@given(networks())
def test_flow_value_residuals_and_reachable_set(network):
    nodes, arcs = network
    source, sink = 0, nodes - 1
    adj, to = _layout(nodes, [(u, v) for u, v, c in arcs])
    cap = [x for u, v, c in arcs for x in (c, 0)]
    with time_limit(1):
        value, level = _max_flow(adj, to, cap, source, sink)

    inner = range(1, nodes - 1)
    cuts = [frozenset((source,) + chosen)
            for size in range(nodes - 1)
            for chosen in itertools.combinations(inner, size)]
    best = min(cut_capacity(arcs, side) for side in cuts)
    assert value == best

    balance = [0] * nodes
    for k, (u, v, c) in enumerate(arcs):
        sent = cap[2 * k + 1]
        assert 0 <= sent <= c and cap[2 * k] == c - sent
        balance[u] -= sent
        balance[v] += sent
    assert balance[source] == -value and balance[sink] == value
    assert all(balance[v] == 0 for v in inner)

    minimum_cuts = [side for side in cuts if cut_capacity(arcs, side) == best]
    minimal = frozenset.intersection(*minimum_cuts)
    maximal = frozenset.union(*minimum_cuts)
    assert [v in minimal for v in range(nodes)] == [depth >= 0 for depth in level]
    assert [v not in maximal for v in range(nodes)] == _reaching(adj, to, cap, sink)
