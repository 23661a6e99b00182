"""Witness and debug text, pinned byte for byte.

The litmus case ``R`` fails TSO through a cycle with static (R2, R3),
observed (R4), R6 and R7 edges, so its renderings exercise every kind
of edge reason: the shared program-order reasons and the R6/R7 reasons
whose text is built only when read.  Every engine that names R6/R7
edges by node id must render exactly the texts below.
"""

import pytest

from repro.core.api import check_litmus
from repro.core.policy import PSO
from repro.core.result import EdgeReason, InferredReason, program_order_reason
from repro.generator.litmus import litmus_by_name

EXPLAIN = """\
TSO check: FAIL (9 nodes, 10 edges, 1 iterations, engine=vc)
violation: the inferred global memory order contains a cycle of 5 operation(s): P0.0 S[A]#1 <= P0.1 S[B]#1 <= P1.0 S[B]#2 <= P1.1 MEMBAR <= P1.2 L[A]=0 <= P0.0 S[A]#1
cycle in the inferred global memory order:
  P0.0 S[A]#1  <=  P0.1 S[B]#1    [R2: program order]
  P0.1 S[B]#1  <=  P1.0 S[B]#2    [R6: store n3 precedes load n8, which observed store n4 (Value axiom)]
  P1.0 S[B]#2  <=  P1.1 MEMBAR    [R3: program order]
  P1.1 MEMBAR  <=  P1.2 L[A]=0    [R3: program order]
  P1.2 L[A]=0  <=  P0.0 S[A]#1    [R7: load n6 observed store n0, which precedes store n2 (Value axiom)]
"""

STREAM_EXPLAIN = """\
TSO check: FAIL (9 nodes, 11 edges, 2 iterations, engine=stream)
violation: the inferred global memory order contains a cycle of 5 operation(s): P1.0 S[B]#2 <= P1.1 MEMBAR <= P1.2 L[A]=0 <= P0.0 S[A]#1 <= P0.1 S[B]#1 <= P1.0 S[B]#2
cycle in the inferred global memory order:
  P1.0 S[B]#2  <=  P1.1 MEMBAR    [R3: program order]
  P1.1 MEMBAR  <=  P1.2 L[A]=0    [R3: program order]
  P1.2 L[A]=0  <=  P0.0 S[A]#1    [R7: load n6 observed store n0, which precedes store n2 (Value axiom)]
  P0.0 S[A]#1  <=  P0.1 S[B]#1    [R2: program order]
  P0.1 S[B]#1  <=  P1.0 S[B]#2    [R6: store n3 precedes load n8, which observed store n4 (Value axiom)]
"""

DOT = """\
digraph tsotool {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n2 [label="P0.0 S[A]#1", color=red, penwidth=2];
  n3 [label="P0.1 S[B]#1", color=red, penwidth=2];
  n4 [label="P1.0 S[B]#2", color=red, penwidth=2];
  n5 [label="P1.1 MEMBAR", color=red, penwidth=2];
  n6 [label="P1.2 L[A]=0", color=red, penwidth=2];
  n2 -> n3 [label="R2", color=red, penwidth=2];
  n3 -> n4 [label="R6", color=red, penwidth=2];
  n4 -> n5 [label="R3", color=red, penwidth=2];
  n5 -> n6 [label="R3", color=red, penwidth=2];
  n6 -> n2 [label="R7", color=red, penwidth=2];
}
"""

DOT_ALL_EDGES = """\
digraph tsotool {
  rankdir=TB;
  node [shape=box, fontname="monospace"];
  n0 [label="init[A]#0"];
  n1 [label="init[B]#0"];
  n2 [label="P0.0 S[A]#1", color=red, penwidth=2];
  n3 [label="P0.1 S[B]#1", color=red, penwidth=2];
  n4 [label="P1.0 S[B]#2", color=red, penwidth=2];
  n5 [label="P1.1 MEMBAR", color=red, penwidth=2];
  n6 [label="P1.2 L[A]=0", color=red, penwidth=2];
  n7 [label="P2.0 L[B]=1"];
  n8 [label="P2.1 L[B]=2"];
  n0 -> n2 [label="init"];
  n0 -> n6 [label="R4"];
  n1 -> n3 [label="init"];
  n1 -> n4 [label="init"];
  n2 -> n3 [label="R2", color=red, penwidth=2];
  n3 -> n4 [label="R6", color=red, penwidth=2];
  n3 -> n7 [label="R4"];
  n4 -> n5 [label="R3", color=red, penwidth=2];
  n4 -> n8 [label="R4"];
  n5 -> n6 [label="R3", color=red, penwidth=2];
  n6 -> n2 [label="R7", color=red, penwidth=2];
  n7 -> n8 [label="R1"];
}
"""

DUMP = """\
# tsotool analysis graph: model=TSO engine=vc verdict=FAIL
# 9 nodes, 10 explicit edges
node 0      init[A]#0
node 1      init[B]#0
node 2      P0.0 S[A]#1
node 3      P0.1 S[B]#1
node 4      P1.0 S[B]#2
node 5      P1.1 MEMBAR
node 6      P1.2 L[A]=0
node 7      P2.0 L[B]=1
node 8      P2.1 L[B]=2
edge 0 -> 2  [init: program order]
edge 0 -> 6  [R4: P1.2 L[A]=0 observed the value of init[A]#0, which is not an earlier store of the same processor, so the store must be globally visible before the load binds (Value axiom)]
edge 1 -> 3  [init: program order]
edge 1 -> 4  [init: program order]
edge 2 -> 3  [R2: program order]
edge 3 -> 4  [R6: store n3 precedes load n8, which observed store n4 (Value axiom)]
edge 3 -> 7  [R4: P2.0 L[B]=1 observed the value of P0.1 S[B]#1, which is not an earlier store of the same processor, so the store must be globally visible before the load binds (Value axiom)]
edge 4 -> 5  [R3: program order]
edge 4 -> 8  [R4: P2.1 L[B]=2 observed the value of P1.0 S[B]#2, which is not an earlier store of the same processor, so the store must be globally visible before the load binds (Value axiom)]
edge 5 -> 6  [R3: program order]
edge 6 -> 2  [R7: load n6 observed store n0, which precedes store n2 (Value axiom)]
edge 7 -> 8  [R1: program order]
cycle 2 3 4 5 6
"""


#: Two swaps under PSO: each cycle edge into or out of a swap is
#: redirected to the group's first or last node, so the witness below
#: passes through both atomic groups.
PSO_SWAPS = "P0: SWAP[A]=0,#1 ; L[B]=0\nP1: SWAP[B]=0,#1 ; L[A]=0"

PSO_SWAPS_EXPLAIN = """\
PSO check: FAIL (8 nodes, 8 edges, 1 iterations, engine={engine})
violation: the inferred global memory order contains a cycle of 6 operation(s): P1.0 L[B]=0 <= P1.1 S[B]#1 <= P1.2 L[A]=0 <= P0.0 L[A]=0 <= P0.1 S[A]#1 <= P0.2 L[B]=0 <= P1.0 L[B]=0
cycle in the inferred global memory order:
  P1.0 L[B]=0  <=  P1.1 S[B]#1    [R1: program order]
  P1.1 S[B]#1  <=  P1.2 L[A]=0    [R1: program order]
  P1.2 L[A]=0  <=  P0.0 L[A]=0    [R7: load n7 observed store n0, which precedes store n3 (Value axiom)]
  P0.0 L[A]=0  <=  P0.1 S[A]#1    [R1: program order]
  P0.1 S[A]#1  <=  P0.2 L[B]=0    [R1: program order]
  P0.2 L[B]=0  <=  P1.0 L[B]=0    [R7: load n4 observed store n1, which precedes store n6 (Value axiom)]
"""

#: The streaming engine closes a shorter cycle through P0's swap: the
#: ``init`` edge into its store half lands on the load half.
PSO_SWAPS_STREAM_EXPLAIN = """\
PSO check: FAIL (8 nodes, 9 edges, 3 iterations, engine=stream)
violation: the inferred global memory order contains a cycle of 3 operation(s): init[A]#0 <= P0.0 L[A]=0 <= P0.1 S[A]#1 <= init[A]#0
cycle in the inferred global memory order:
  init[A]#0  <=  P0.0 L[A]=0    [init: program order]
  P0.0 L[A]=0  <=  P0.1 S[A]#1    [R1: program order]
  P0.1 S[A]#1  <=  init[A]#0    [R6: store n3 precedes load n7, which observed store n0 (Value axiom)]
"""


def _result(engine):
    return check_litmus(litmus_by_name("R").text, engine=engine)


def test_vc_explain_is_pinned():
    assert _result("vc").explain() + "\n" == EXPLAIN


def test_vc_dot_is_pinned():
    result = _result("vc")
    assert result.to_dot() + "\n" == DOT
    assert result.to_dot(result.graph.reasons) + "\n" == DOT_ALL_EDGES


def test_vc_graph_dump_is_pinned():
    assert _result("vc").dump_graph() == DUMP


@pytest.mark.parametrize("engine", ["vck", "closure"])
def test_witness_text_matches_across_engines(engine):
    # Same cycle, same reasons: only the header's engine name differs.
    expected = EXPLAIN.splitlines()[1:]
    assert _result(engine).explain().splitlines()[1:] == expected


def test_stream_explain_is_pinned():
    # The streaming engine closes the same cycle at a different edge.
    assert _result("stream").explain() + "\n" == STREAM_EXPLAIN


@pytest.mark.parametrize("engine", ["vc", "vck"])
def test_pso_atomic_group_witness_is_pinned(engine):
    result = check_litmus(PSO_SWAPS, model=PSO, engine=engine)
    assert result.explain() + "\n" == PSO_SWAPS_EXPLAIN.format(engine=engine)


def test_stream_pso_atomic_group_witness_is_pinned():
    result = check_litmus(PSO_SWAPS, model=PSO, engine="stream")
    assert result.explain() + "\n" == PSO_SWAPS_STREAM_EXPLAIN


def test_lazy_reason_equals_its_eager_text():
    lazy = InferredReason("R7", 6, 0, 2)
    eager = EdgeReason(
        "R7", "load n6 observed store n0, which precedes store n2 (Value axiom)"
    )
    assert lazy == eager and hash(lazy) == hash(eager)
    assert lazy.render() == eager.render()
    assert program_order_reason("R2") is program_order_reason("R2")
    assert program_order_reason("R2") == EdgeReason("R2", "program order")
