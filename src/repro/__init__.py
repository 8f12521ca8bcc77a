"""vNPU: topology-aware virtualization for inter-core connected NPUs.

A full-system reproduction of Feng et al., *Topology-Aware Virtualization
over Inter-Core Connected Neural Processing Units* (ISCA 2025): a
cycle-accounting NPU chip simulator, the vRouter / vChunk virtualization
hardware, the topology-mapping hypervisor, the UVM and MIG baselines, a
model zoo, and a compiler/runtime that deploys models onto virtual NPUs.

Quickstart::

    from repro import (Chip, Hypervisor, MeshShape, VNpuSpec, deploy,
                       sim_config)
    from repro.workloads import resnet

    chip = Chip(sim_config(36))
    hypervisor = Hypervisor(chip)
    vnpu = hypervisor.create_vnpu(
        VNpuSpec("tenant-a", MeshShape(4, 6), memory_bytes=256 << 20))
    report = deploy(resnet(34), vnpu, chip)
    print(f"{report.fps:.0f} inferences/s")
"""

from repro.arch.chip import Chip
from repro.arch.config import (
    CoreConfig,
    MemoryConfig,
    NoCConfig,
    SoCConfig,
    fpga_config,
    sim_config,
)
from repro.arch.topology import MeshShape, Topology
from repro.core.ged import EditCosts, ged
from repro.core.hypervisor import Hypervisor
from repro.core.strategies import (
    MappingStrategy,
    available_strategies,
    register_strategy,
    resolve_strategy,
    unregister_strategy,
)
from repro.core.topology_mapping import MappingResult, TopologyMapper
from repro.core.vnpu import VirtualNPU, VNpuSpec
from repro.cost import (
    AnalyticCostModel,
    CachedCostModel,
    CostModel,
    ExecutorCostModel,
    WorkloadCost,
    available_cost_models,
    coerce_cost_model,
    register_cost_model,
    resolve_cost_model,
)
from repro.errors import ReproError
from repro.runtime.executor import Executor
from repro.runtime.session import (
    RunReport,
    compile_bare_metal,
    compile_model,
    deploy,
    estimate_together,
)
from repro.serving import (
    DefragPolicy,
    FleetMetrics,
    FleetScheduler,
    generate_fleet_trace,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyticCostModel",
    "CachedCostModel",
    "Chip",
    "CoreConfig",
    "CostModel",
    "DefragPolicy",
    "EditCosts",
    "Executor",
    "ExecutorCostModel",
    "FleetMetrics",
    "FleetScheduler",
    "Hypervisor",
    "MappingResult",
    "MappingStrategy",
    "MemoryConfig",
    "MeshShape",
    "NoCConfig",
    "ReproError",
    "RunReport",
    "SoCConfig",
    "Topology",
    "TopologyMapper",
    "VNpuSpec",
    "VirtualNPU",
    "WorkloadCost",
    "available_cost_models",
    "available_strategies",
    "coerce_cost_model",
    "compile_bare_metal",
    "compile_model",
    "deploy",
    "estimate_together",
    "fpga_config",
    "ged",
    "generate_fleet_trace",
    "generate_trace",
    "register_cost_model",
    "register_strategy",
    "resolve_cost_model",
    "resolve_strategy",
    "sim_config",
    "unregister_strategy",
]
