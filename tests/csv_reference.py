"""Reference CSV writer that formats every value with its own ``repr``.
The tests require ``frustra.cli._table_csv``, which formats each distinct
value of a table once, to produce the same bytes."""


def table_csv(table) -> str:
    """CSV text of a sequence of points (g, reduced_coupling,
    [(observable, indices, values), ...])."""
    lines = ["g,reduced_coupling,observable,index,value"]
    for g, reduced, columns in table:
        head = f"{g!r},{reduced!r},"
        for observable, indices, values in columns:
            lead = f"{head}{observable},"
            lines += [f"{lead}{index},{value!r}" for index, value in zip(indices, values)]
    return "\n".join(lines) + "\n"


def sweep_table(result):
    """A sweep result's table in the writer's form (g, reduced_coupling,
    [(observable, labels, values, mask), ...])."""
    return result.g, result.reduced, [(name, *column) for name, column in result.table.items()]


def table_points(table):
    """The points of a table in the writer's form, every column's present
    values picked out by its mask, one point at a time."""
    g, reduced, columns = table
    for i, (g_i, reduced_i) in enumerate(zip(g.tolist(), reduced.tolist())):
        yield g_i, reduced_i, [(name, labels[mask[i]].tolist(), values[i, mask[i]].tolist())
                               for name, labels, values, mask in columns]
