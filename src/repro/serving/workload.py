"""Seeded tenant-session traces for the serving simulator.

A trace is a list of :class:`TenantSession` requests sorted by arrival
cycle: each tenant asks for a mesh of cores, some guest memory, a model
from the zoo and a number of inferences to run before departing. Traces
are fully determined by their seed — inter-arrival gaps are drawn from an
exponential distribution through ``random.Random(seed)``, so two calls
with the same arguments produce identical traces (the property the
serving benchmark's byte-identical-JSON check rests on).

Beyond the original Poisson stream, the generator speaks two more
arrival processes (``arrival_process=``): **bursty** — a two-state
Markov-modulated Poisson process whose burst state compresses the mean
inter-arrival gap by ``burst_gap_factor`` — and **diurnal** — a
deterministic sinusoidal rate swing with period
``diurnal_period_cycles``, the day/night load curve. An ``slo_mix``
additionally deals each session an :class:`~repro.serving.slo.SLOClass`
name. All new RNG draws are appended strictly *after* the original
per-session ``(gap, shape, model, inferences, sticky, priority)``
sequence, so every historical seed re-deals identically (the golden-hash
trace tests pin this).

A trace recipe has one spelling: :func:`generate_trace`'s keyword
knobs, validated fail-fast before the first draw.
:func:`generate_fleet_trace` scales one recipe to a fleet and forwards
the rest of its knobs unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.arch.config import MB
from repro.arch.topology import MeshShape
from repro.errors import ServingError
from repro.serving.slo import resolve_slo
from repro.workloads.zoo import SERVING_MODEL_BUILDERS

#: Model zoo slice used by the generator (re-homed to
#: :mod:`repro.workloads.zoo`; this alias keeps the historical import
#: path working). The *sorted names* of this table are part of the RNG
#: draw-order contract pinned by the golden-hash trace test.
MODEL_BUILDERS = SERVING_MODEL_BUILDERS

#: Request shapes with draw weights: mostly small tenants, a thin tail of
#: near-chip-sized ones (the paper's multi-tenant mix, Fig 16).
SHAPE_MIX = (
    (MeshShape(1, 2), 15),
    (MeshShape(2, 2), 30),
    (MeshShape(2, 3), 20),
    (MeshShape(3, 3), 15),
    (MeshShape(3, 4), 10),
    (MeshShape(4, 4), 6),
    (MeshShape(4, 6), 3),
    (MeshShape(6, 6), 1),
)

#: Shape mix biased toward the sizes that shatter a mesh: lots of small
#: odd-shaped tenants interleaved with mid-sized blocks, so departures
#: leave free cores scattered instead of in one region (Fig 17's regime).
FRAGMENTATION_SHAPE_MIX = (
    (MeshShape(1, 2), 22),
    (MeshShape(1, 3), 12),
    (MeshShape(2, 2), 24),
    (MeshShape(2, 3), 16),
    (MeshShape(3, 3), 14),
    (MeshShape(3, 4), 8),
    (MeshShape(4, 4), 4),
)


#: Arrival processes the generator understands.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")

#: A serving-realistic class mix: a thin guaranteed tier over a broad
#: elastic reserve (weights, not probabilities).
DEFAULT_SLO_MIX = (("gold", 2), ("silver", 3), ("best_effort", 5))


@dataclass(frozen=True)
class TenantSession:
    """One tenant's request in a serving trace."""

    session_id: int
    tenant: str
    arrival_cycle: int
    rows: int
    cols: int
    memory_bytes: int
    model: str
    #: Inferences to serve before the tenant departs.
    inferences: int
    priority: int = 0
    #: SLO-class name (see :mod:`repro.serving.slo`); empty = derive
    #: from ``priority``, which is what every pre-SLO trace did.
    slo: str = ""

    @property
    def shape(self) -> MeshShape:
        return MeshShape(self.rows, self.cols)

    @property
    def core_count(self) -> int:
        return self.rows * self.cols


def _diurnal_gap_factor(cycle: int, period_cycles: int,
                        amplitude: float) -> float:
    """Inter-arrival multiplier at ``cycle`` of a sinusoidal day.

    The arrival *rate* swings ``1 ± amplitude`` over one period; the gap
    scales by its inverse. Rounded so the factor (and with it every
    arrival cycle) is stable against last-ulp libm drift.
    """
    rate = 1.0 + amplitude * math.sin(
        2.0 * math.pi * ((cycle % period_cycles) / period_cycles))
    return round(1.0 / rate, 9)


def generate_trace(seed: int,
                   sessions: int,
                   max_cores: int = 36,
                   mean_interarrival_cycles: int = 2_000_000,
                   min_inferences: int = 20,
                   max_inferences: int = 200,
                   memory_per_core_bytes: int = 32 * MB,
                   shape_mix: tuple = SHAPE_MIX,
                   sticky_fraction: float = 0.0,
                   sticky_multiplier: int = 10,
                   arrival_process: str = "poisson",
                   burst_gap_factor: float = 0.1,
                   burst_enter_prob: float = 0.08,
                   burst_exit_prob: float = 0.25,
                   diurnal_period_cycles: int = 200_000_000,
                   diurnal_amplitude: float = 0.8,
                   slo_mix: tuple | None = None) -> list[TenantSession]:
    """A deterministic trace of ``sessions`` tenant sessions.

    Shapes larger than ``max_cores`` are excluded from the mix so every
    request is admissible on the target chip eventually. A nonzero
    ``sticky_fraction`` turns that share of tenants into long-lived
    residents (``sticky_multiplier`` x the drawn inference count) — the
    pinned tenants around which fragmentation accumulates.

    ``arrival_process`` picks the arrival model: ``"poisson"`` (the
    original stream), ``"bursty"`` (two-state MMPP: while in the burst
    state the drawn gap is scaled by ``burst_gap_factor``; the state
    flips with ``burst_enter_prob``/``burst_exit_prob`` per session) or
    ``"diurnal"`` (gaps scaled by a deterministic sinusoid of amplitude
    ``diurnal_amplitude`` over ``diurnal_period_cycles``). ``slo_mix``
    — ``((class_name, weight), ...)`` over registered
    :mod:`repro.serving.slo` classes — deals each session an SLO class.

    Determinism contract: with the defaults the generator draws exactly
    the same random sequence as before any of these knobs existed, and
    the new draws (SLO class, burst-state flip) are appended strictly
    *after* the original per-session sequence, so the per-session
    ``(shape, model, inferences, priority)`` deal is identical across
    arrival processes for one seed.
    """
    if sessions < 1:
        raise ServingError(f"trace needs at least one session, got {sessions}")
    if not 0.0 <= sticky_fraction <= 1.0:
        raise ServingError(
            f"sticky_fraction must be in [0, 1], got {sticky_fraction}")
    if arrival_process not in ARRIVAL_PROCESSES:
        raise ServingError(
            f"unknown arrival process {arrival_process!r}; "
            f"known: {ARRIVAL_PROCESSES}")
    if burst_gap_factor <= 0.0:
        raise ServingError(
            f"burst_gap_factor must be positive, got {burst_gap_factor}")
    if not (0.0 <= burst_enter_prob <= 1.0 and 0.0 <= burst_exit_prob <= 1.0):
        raise ServingError("burst enter/exit probabilities must be in [0, 1]")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ServingError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}")
    if diurnal_period_cycles < 1:
        raise ServingError(
            f"diurnal_period_cycles must be positive, got "
            f"{diurnal_period_cycles}")
    slo_names: list[str] = []
    slo_weights: list[int] = []
    if slo_mix is not None:
        for name, weight in slo_mix:
            resolve_slo(name)  # fail fast on unregistered classes
            slo_names.append(name)
            slo_weights.append(weight)
    shapes = [(shape, weight) for shape, weight in shape_mix
              if shape.node_count <= max_cores]
    if not shapes:
        raise ServingError(f"no trace shape fits a {max_cores}-core chip")
    rng = random.Random(seed)
    models = sorted(MODEL_BUILDERS)
    population = [shape for shape, _ in shapes]
    weights = [weight for _, weight in shapes]

    trace: list[TenantSession] = []
    cycle = 0
    gap_factor = 1.0
    in_burst = False
    for session_id in range(sessions):
        if arrival_process == "diurnal":
            gap_factor = _diurnal_gap_factor(cycle, diurnal_period_cycles,
                                             diurnal_amplitude)
        # gap_factor is exactly 1.0 on the Poisson path: int(1.0 * x)
        # == int(x), so historical seeds reproduce bit-for-bit.
        cycle += 1 + int(gap_factor
                         * rng.expovariate(1.0 / mean_interarrival_cycles))
        shape = rng.choices(population, weights=weights, k=1)[0]
        # Draw order (shape, model, inferences, priority) is part of the
        # determinism contract: reordering would silently change every
        # historical seed's trace. New draws go strictly *after* it.
        model = rng.choice(models)
        inferences = rng.randint(min_inferences, max_inferences)
        if sticky_fraction and rng.random() < sticky_fraction:
            inferences *= sticky_multiplier
        priority = rng.randint(0, 2)
        # -- appended draws (post-contract): SLO class, burst flip ------
        slo = ""
        if slo_mix is not None:
            slo = rng.choices(slo_names, weights=slo_weights, k=1)[0]
        if arrival_process == "bursty":
            flip = burst_exit_prob if in_burst else burst_enter_prob
            if rng.random() < flip:
                in_burst = not in_burst
            gap_factor = burst_gap_factor if in_burst else 1.0
        trace.append(TenantSession(
            session_id=session_id,
            tenant=f"tenant-{session_id:04d}",
            arrival_cycle=cycle,
            rows=shape.rows,
            cols=shape.cols,
            memory_bytes=shape.node_count * memory_per_core_bytes,
            model=model,
            inferences=inferences,
            priority=priority,
            slo=slo,
        ))
    return trace


def generate_fleet_trace(seed: int,
                         sessions: int,
                         chips: int,
                         max_cores: int = 36,
                         mean_interarrival_cycles: int = 2_000_000,
                         fragmentation_heavy: bool = False,
                         **kwargs) -> list[TenantSession]:
    """A trace sized for a ``chips``-chip fleet.

    Arrival rate scales with the fleet (the per-fleet mean inter-arrival
    gap is ``mean_interarrival_cycles / chips``), so each chip sees
    roughly the single-chip load regardless of fleet size.
    ``fragmentation_heavy`` switches to the shattering shape mix and pins
    a quarter of the tenants as long-lived residents — the workload the
    defragmentation policy exists for.
    """
    if chips < 1:
        raise ServingError(f"fleet needs at least one chip, got {chips}")
    if fragmentation_heavy:
        kwargs.setdefault("shape_mix", FRAGMENTATION_SHAPE_MIX)
        kwargs.setdefault("sticky_fraction", 0.25)
    return generate_trace(
        seed, sessions, max_cores=max_cores,
        mean_interarrival_cycles=max(1, mean_interarrival_cycles // chips),
        **kwargs,
    )
