"""Parameter sweeps: the workhorse behind every figure in the evaluation.

The paper's figures are families of curves: read hit ratio as a function of
the server cache size (Figures 6-8), of the number of tracked hint sets ``k``
(Figure 9), or of the number of injected noise hint types ``T`` (Figure 10).
This module provides the generic sweep driver plus the two specialised sweeps
that need to rebuild the policy with different CLIC configurations.

All sweeps run through the shared-replay engine
(:mod:`repro.simulation.engine`): policies that replay the same stream share
a single trace pass, and ``jobs > 1`` fans the sweep cells out over worker
processes.  The default ``jobs=1`` keeps results bit-identical to a fully
serial run.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as _np

from repro.cache.base import CachePolicy
from repro.core.config import CLICConfig
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import (
    ParallelSweepRunner,
    PolicySpec,
    RequestSource,
    SweepCell,
)
from repro.simulation.metrics import SweepResult
from repro.trace.columnar import ColumnarStream, as_columnar

__all__ = [
    "sweep_cache_sizes",
    "sweep_top_k",
    "sweep_policy_parameter",
]


def _policy_specs(
    policies: Iterable[str],
    capacity: int,
    policy_kwargs: Mapping[str, Mapping[str, object]],
) -> tuple[PolicySpec, ...]:
    return tuple(
        PolicySpec(
            label=name,
            name=name,
            capacity=capacity,
            kwargs=dict(policy_kwargs.get(name, {})),
        )
        for name in policies
    )


def sweep_cache_sizes(
    requests: RequestSource,
    cache_sizes: Sequence[int],
    policies: Iterable[str],
    policy_kwargs: Mapping[str, Mapping[str, object]] | None = None,
    jobs: int | None = 1,
    cost_model: CostModel | None = None,
) -> SweepResult:
    """Read hit ratio as a function of server cache size (Figures 6-8).

    Each cache size is one sweep cell whose policies share a replay pass;
    ``jobs`` fans the cells out over worker processes.  ``requests`` may be
    a request list or a lazy source such as a
    :class:`~repro.trace.cache.TraceSpec` — with a lazy source and
    ``jobs > 1``, workers open the trace from the on-disk cache themselves
    instead of receiving pickled request lists.
    """
    policies = list(policies)
    policy_kwargs = policy_kwargs or {}
    cells = [
        SweepCell(
            x=float(capacity),
            specs=_policy_specs(policies, capacity, policy_kwargs),
        )
        for capacity in cache_sizes
    ]
    runner = ParallelSweepRunner(requests, jobs=jobs, cost_model=cost_model)
    return runner.run(cells, parameter="cache_size")


def sweep_top_k(
    requests: RequestSource,
    capacity: int,
    k_values: Sequence[int | None],
    base_config: CLICConfig | None = None,
    label_for: Callable[[int | None], str] | None = None,
    jobs: int | None = 1,
    cost_model: CostModel | None = None,
) -> SweepResult:
    """CLIC read hit ratio as a function of the number of tracked hint sets ``k``.

    ``None`` in *k_values* means "track all hint sets" (the exact hint table),
    which the paper uses as the reference point for Figure 9; its x is the
    number of distinct hint sets in the stream.  Every field of
    *base_config* other than ``top_k`` is preserved verbatim.  A request
    list is lifted once (:func:`~repro.trace.columnar.as_columnar`), for the
    count and every replay.
    """
    base = base_config or CLICConfig()
    label_for = label_for or (lambda k: "CLIC")
    source = as_columnar(requests)
    track_all_x: float | None = None
    cells = []
    for k in k_values:
        config = dataclasses.replace(base, top_k=k)
        if k is None:
            if track_all_x is None:
                track_all_x = float(_distinct_hint_sets(source))
            x = track_all_x
        else:
            x = float(k)
        cells.append(
            SweepCell(
                x=x,
                specs=(
                    PolicySpec(
                        label=label_for(k),
                        name="CLIC",
                        capacity=capacity,
                        kwargs={"config": config},
                    ),
                ),
            )
        )
    runner = ParallelSweepRunner(source, jobs=jobs, cost_model=cost_model)
    return runner.run(cells, parameter="k")


def _distinct_hint_sets(source: ColumnarStream) -> int:
    """The number of distinct :meth:`HintSet.key` values in *source*, read
    from each chunk's hint table at the hint ids the chunk uses."""
    keys: set[tuple] = set()
    for chunk in source.iter_columnar():
        table = chunk.hint_sets
        keys.update(table[h].key() for h in _np.unique(chunk.hint_id).tolist())
    return len(keys)


def _build_from_factory(
    make_policy: Callable[[object, int], CachePolicy], value: object, capacity: int
) -> CachePolicy:
    return make_policy(value, capacity)


def sweep_policy_parameter(
    requests: RequestSource,
    capacity: int,
    parameter: str,
    values: Sequence[object],
    make_policy: Callable[[object, int], CachePolicy],
    label: str = "CLIC",
    jobs: int | None = 1,
    cost_model: CostModel | None = None,
) -> SweepResult:
    """Generic single-policy parameter sweep (used by the ablation benches).

    ``make_policy`` must be picklable (a module-level callable) for
    ``jobs > 1``; otherwise the runner falls back to the serial path.
    """
    cells = []
    for index, value in enumerate(values):
        x = float(value) if isinstance(value, (int, float)) else float(index)
        cells.append(
            SweepCell(
                x=x,
                specs=(
                    PolicySpec(
                        label=label,
                        factory=partial(_build_from_factory, make_policy, value, capacity),
                    ),
                ),
            )
        )
    runner = ParallelSweepRunner(requests, jobs=jobs, cost_model=cost_model)
    return runner.run(cells, parameter=parameter)
