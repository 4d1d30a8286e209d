"""Reference CSV writer that formats every value with its own ``repr``.
The tests require the package's writer, ``frustra.cli._csv_chunks``, which
formats each distinct value of a table once, to produce the same bytes.
Also the tests' CSV reader and a writer of the rows it returns."""

import numpy as np

from frustra.cli import _csv_chunks


def package_csv(table) -> str:
    """The CSV text the package writes for a table in the writer's form."""
    return "".join(_csv_chunks(table))


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


def rows_to_csv(rows) -> str:
    """CSV text of row dicts (as :func:`csv_to_rows` returns them), written
    by the package's writer: a table with one point per row and one column
    per (observable, index) pair."""
    keys: dict = {}
    column = [keys.setdefault((row["observable"], row["index"]), len(keys)) for row in rows]
    points, shape = np.arange(len(rows)), (len(rows), len(keys))
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    values[points, column], mask[points, column] = [row["value"] for row in rows], True
    return package_csv((np.array([row["g"] for row in rows], dtype=float),
                        np.array([row["reduced_coupling"] for row in rows], dtype=float),
                        [(observable, np.array([index]), values[:, [k]], mask[:, [k]])
                         for k, (observable, index) in enumerate(keys)]))


def csv_to_rows(text: str):
    """The rows of CSV text as dicts, values and couplings as floats."""
    lines = [line.split(",") for line in text.splitlines() if line.strip()][1:]
    return [{"g": float(g), "reduced_coupling": float(reduced), "observable": observable,
             "index": index, "value": float(value)}
            for g, reduced, observable, index, value in lines]
