"""The serving model zoo: concrete builders tenant sessions name.

Every :class:`~repro.serving.workload.TenantSession` carries a ``model``
string; this table binds those strings to zero-arg builders producing
:class:`~repro.workloads.graph.ModelGraph` instances, so the serving
stack and the cost engine always run *real compiled workloads* — a
transformer prefill (bert), decode-shaped gpt2, and a CNN slice of the
zoo — rather than abstract core/byte shapes.

The table's *contents* are part of the trace-determinism contract: the
trace generator draws ``rng.choice(sorted(SERVING_MODEL_BUILDERS))``, so
adding, removing or renaming an entry silently reshuffles every
historical seed's trace (see the golden-hash regression test in
``tests/unit/test_trace_golden.py``). Extend per-experiment via
``CostModel.register_model`` / ``FleetScheduler.register_model``
instead of editing this table.
"""

from __future__ import annotations

from repro.workloads.cnn_zoo import alexnet, mobilenet, resnet, yolo_lite
from repro.workloads.transformer import bert_base, gpt2

#: name -> zero-arg builder. Kept to the cheaper graphs so a 500-session
#: trace compiles quickly.
SERVING_MODEL_BUILDERS = {
    "alexnet": alexnet,
    "bert-base": lambda: bert_base(128),
    "gpt2-small": lambda: gpt2("small", 256),
    "mobilenet": mobilenet,
    "resnet18": lambda: resnet(18),
    "resnet34": lambda: resnet(34),
    "yolo-lite": yolo_lite,
}
