"""Generic design-space sweep utilities.

The paper's sensitivity studies are one-dimensional sweeps of
:class:`~repro.config.MachineConfig` fields.  :func:`sweep` and
:func:`grid_sweep` generalise that: give them a base configuration, the
fields to vary and a measurement function, and they return an
:class:`~repro.harness.report.ExperimentResult` ready for rendering --
the tool behind ``examples/design_space.py`` and quick what-if studies.
Points are measured one after another, in this process, and rows come
back in that order.
"""

import itertools

from repro.harness.report import ExperimentResult


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


def sweep(base_config, field, values, measure, exp_id="sweep", title=None):
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
        Callable ``measure(config) -> dict`` of result columns.
    """
    values = list(values)
    points = [{field: value} for value in values]
    configs = [base_config.with_changes(**{field: value})
               for value in values]
    outcomes = [measure(config) for config in configs]
    columns = [field]
    rows = _assemble(points, outcomes, columns)
    return ExperimentResult(
        exp_id, title or ("sweep of %s" % field), columns, rows,
    )


def grid_sweep(base_config, fields, measure, exp_id="grid_sweep",
               title=None):
    """Cartesian-product sweep over several configuration fields.

    `fields` maps field names to value iterables.  Rows appear in
    row-major order of the given field order.
    """
    names = list(fields)
    points = [
        dict(zip(names, combination))
        for combination in itertools.product(
            *(fields[name] for name in names)
        )
    ]
    configs = [base_config.with_changes(**point) for point in points]
    outcomes = [measure(config) for config in configs]
    columns = list(names)
    rows = _assemble(points, outcomes, columns)
    return ExperimentResult(
        exp_id, title or ("grid sweep of %s" % ", ".join(names)),
        columns, rows,
    )
