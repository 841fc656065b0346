"""Generic design-space sweep utilities.

The paper's sensitivity studies are one-dimensional sweeps of
:class:`~repro.config.MachineConfig` fields.  :func:`sweep` and
:func:`grid_sweep` generalise that: give them a base configuration, the
fields to vary and a measurement function, and they return an
:class:`~repro.harness.report.ExperimentResult` ready for rendering --
the tool behind ``examples/design_space.py`` and quick what-if studies.

Design points are independent simulations, so both helpers accept
``workers=N`` to farm them out over a forked
:class:`~concurrent.futures.ProcessPoolExecutor`.  Results are
deterministic: rows always come back in the same order as ``workers=1``,
each worker runs an identical, isolated simulation, and an exception
raised by ``measure`` reaches the caller with its own type either way
(the ``measure`` callable and the configs must be picklable --
module-level functions, not closures or lambdas).
"""

import itertools

from repro.harness.report import ExperimentResult


def _measure_one(task):
    """Module-level worker target (must be picklable for process pools)."""
    measure, config = task
    return measure(config)


def _run_points(measure, configs, workers):
    """Measure every config, optionally across a process pool.

    ``workers=N`` forks a temporary pool; ``map`` yields outcomes in
    submission order, so rows match the ``workers=1`` order.  A worker
    that dies outright surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    if workers in (None, 0, 1) or len(configs) <= 1:
        return [measure(config) for config in configs]
    # Imported here so serial runs never load multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork keeps the measure function usable without requiring it to be
    # importable under "spawn" re-import semantics on every platform.
    with ProcessPoolExecutor(
            min(workers, len(configs)),
            mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_measure_one,
                             [(measure, config) for config in configs]))


def _assemble(points, outcomes, columns):
    rows = []
    for point, outcome in zip(points, outcomes):
        row = dict(point)
        row.update(outcome)
        for name in outcome:
            if name not in columns:
                columns.append(name)
        rows.append(row)
    return rows


def sweep(base_config, field, values, measure, exp_id="sweep", title=None,
          workers=None):
    """Vary one configuration field; measure each design point.

    Parameters
    ----------
    base_config:
        The :class:`~repro.config.MachineConfig` to derive points from.
    field:
        Name of the config field to vary.
    values:
        Iterable of values for `field`.
    measure:
        Callable ``measure(config) -> dict`` of result columns.  With
        ``workers`` it must be picklable (a module-level function).
    workers:
        Process count for parallel measurement; ``None``/``0``/``1`` run
        in-process.  Row order is identical either way.
    """
    values = list(values)
    points = [{field: value} for value in values]
    configs = [base_config.with_changes(**{field: value})
               for value in values]
    outcomes = _run_points(measure, configs, workers)
    columns = [field]
    rows = _assemble(points, outcomes, columns)
    return ExperimentResult(
        exp_id, title or ("sweep of %s" % field), columns, rows,
    )


def grid_sweep(base_config, fields, measure, exp_id="grid_sweep",
               title=None, workers=None):
    """Cartesian-product sweep over several configuration fields.

    `fields` maps field names to value iterables.  Rows appear in
    row-major order of the given field order; ``workers`` parallelises
    the measurements without changing that order.
    """
    names = list(fields)
    points = [
        dict(zip(names, combination))
        for combination in itertools.product(
            *(fields[name] for name in names)
        )
    ]
    configs = [base_config.with_changes(**point) for point in points]
    outcomes = _run_points(measure, configs, workers)
    columns = list(names)
    rows = _assemble(points, outcomes, columns)
    return ExperimentResult(
        exp_id, title or ("grid sweep of %s" % ", ".join(names)),
        columns, rows,
    )
