"""Reference CSV writer that formats every value with its own ``repr``.
The tests require ``frustra.cli._table_csv``, which formats each distinct
value of a point once, to produce the same bytes."""


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


def table_points(result):
    """A sweep table's points with every observable's present values picked
    out by its mask, one point at a time."""
    for i, (g, reduced) in enumerate(zip(result.g.tolist(), result.reduced.tolist())):
        yield g, reduced, [(name, labels[mask[i]].tolist(), values[i, mask[i]].tolist())
                           for name, (labels, values, mask) in result.table.items()]
