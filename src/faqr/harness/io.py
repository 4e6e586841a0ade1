"""CSV and JSON input/output.

Numeric CSV cells are written with shortest round-trip formatting
(17 significant digits), so write-then-load reproduces a matrix
bit-exactly.  Randomized outputs embed {seed, rng algorithm, package
version} as '#'-prefixed header lines in CSV and a "meta" object in
JSON; loaders skip comment lines.

``load_csv`` splits off the header, the blank and the comment lines
once, then parses the data lines with one ``np.loadtxt`` call.  Only
when that call fails, or reads a non-finite value, does a loop parse
the lines again cell by cell with ``float``: it accepts what ``float``
accepts (quoted cells, ``1_0``) and reports the first bad cell with
its line and column.
"""

import csv
import io
import itertools
import json
import math

import numpy as np

from .. import __version__
from ..errors import MissingValue, ParseError
from ..factor_model import DataMatrix
from ..rng import ALGORITHM


def _fmt(v):
    return format(float(v), ".17g")


def metadata(seed):
    return {"seed": None if seed is None else int(seed), "rng": ALGORITHM, "version": __version__}


def _records(fh):
    """Yield (number, text, cells) of each record of a file opened with newline="".

    A record is a line, ended where csv.reader ends one (\\r, \\n or
    \\r\\n), and cells is None: its cells are its text split at commas.
    A line with a quote character goes to csv.reader, which may read
    on through a quoted line break; its text is then the cells joined
    by commas.  Records are numbered as csv.reader's rows are.
    """
    for number, line in enumerate(fh, start=1):
        if '"' in line:
            cells = next(csv.reader(itertools.chain([line], fh)))
            yield number, ",".join(cells), cells
        else:
            yield number, line.rstrip("\r\n"), None


def _cells(record):
    _, text, cells = record
    return text.split(",") if cells is None else cells


def _parse_cells(path, records, width):
    """Parse the data records cell by cell; raise at the first bad one."""
    values = np.empty((len(records), width))
    for i, record in enumerate(records):
        line_no, row = record[0], _cells(record)
        if len(row) != width:
            raise ParseError(
                f"{path}: line {line_no} has {len(row)} fields, expected {width}",
                line=line_no,
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise MissingValue(
                    f"{path}: empty cell at line {line_no}, column {j + 1}",
                    line=line_no, column=j + 1,
                )
            try:
                v = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {cell!r} at line {line_no}, column {j + 1}",
                    line=line_no, column=j + 1,
                ) from None
            if not math.isfinite(v):
                raise MissingValue(
                    f"{path}: non-finite value {cell!r} at line {line_no}, column {j + 1}",
                    line=line_no, column=j + 1,
                )
            values[i, j] = v
    return values


def load_csv(path, response_column=None, has_header=True):
    """Load a numeric CSV into a DataMatrix.

    Parameters
    ----------
    path : str
    response_column : str | int | None
        Column to extract as the response, by name (requires a header)
        or 0-based index; None keeps every column as a covariate.
    has_header : bool

    Raises
    ------
    ParseError
        On ragged rows or cells that do not parse as decimals; carries
        the 1-based file line and column.
    MissingValue
        On empty or non-finite cells (no imputation is performed).
    """
    with open(path, newline="") as fh:
        header = None
        records = []
        for record in _records(fh):
            text = record[1]
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            if has_header and header is None:
                header = [c.strip() for c in _cells(record)]
                continue
            records.append(record)
    if not records:
        raise ParseError(f"{path}: no data rows")
    width = len(_cells(records[0]))
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} fields, rows have {width}")

    if response_column is None:
        resp_idx = None
    elif isinstance(response_column, str) and not response_column.lstrip("-").isdigit():
        if header is None:
            raise ParseError(f"{path}: response column by name needs a header row")
        try:
            resp_idx = header.index(response_column)
        except ValueError:
            raise ParseError(
                f"{path}: no column named {response_column!r} in header {header}"
            ) from None
    else:
        resp_idx = int(response_column)
        if not 0 <= resp_idx < width:
            raise ParseError(f"{path}: response index {resp_idx} out of range [0, {width})")

    values = None
    if all(cells is None for _, _, cells in records):
        try:
            values = np.loadtxt([text for _, text, _ in records], delimiter=",",
                                comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(records), width) or not np.isfinite(values).all():
        values = _parse_cells(path, records, width)

    if resp_idx is None:
        names = tuple(header) if header else None
        return DataMatrix(x=values, y=None, column_names=names)
    y = values[:, resp_idx]
    x = np.delete(values, resp_idx, axis=1)
    names = None
    if header:
        names = tuple(h for k, h in enumerate(header) if k != resp_idx)
    return DataMatrix(x=x, y=y, column_names=names)


def write_matrix_csv(path, rows, header=None, meta=None):
    """Write rows of numbers (or strings) as CSV with optional metadata.

    Returns the text; with path None nothing is written.
    """
    buf = io.StringIO()
    for k in sorted(meta or {}):
        buf.write(f"# {k}={meta[k]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _listify(a):
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def factor_model_json(fm):
    return {
        "m": int(fm.m),
        "eigenvalues": _listify(fm.eigenvalues),
        "loadings": [_listify(r) for r in fm.b_hat],
        "factors": [_listify(r) for r in fm.f_hat],
        "idiosyncratic": [_listify(r) for r in fm.u_hat],
        "meta": metadata(None),
    }


def fit_json(result, seed, lambda_rule):
    fit = result.fit
    return {
        "theta": _listify(fit.theta_hat),
        "beta": _listify(fit.beta_hat),
        "gamma": _listify(fit.gamma_hat),
        "varphi": None if fit.varphi_hat is None else _listify(fit.varphi_hat),
        "lambda": fit.lam,
        "tau": fit.tau,
        "h": fit.h,
        "objective": fit.final_objective,
        "kkt": fit.kkt_residual,
        "iters": fit.n_outer_iters,
        "escalations": fit.n_escalations,
        "converged": fit.converged,
        "meta": metadata(seed),
        "lambda_rule": {
            "c0": lambda_rule.c0,
            "alpha": lambda_rule.alpha,
            "n_sim": lambda_rule.n_sim,
            "seed": lambda_rule.seed,
        },
    }


def adequacy_json(result):
    return {
        "t_n": result.t_n,
        "p_value": result.p_value,
        "method": result.method,
        "b": result.b,
        "gamma_null": _listify(result.gamma_null),
        "newton_steps": result.newton_steps,
        "meta": metadata(result.seed),
    }


def backtest_json(report, seed=None):
    return {
        "window": report.window,
        "tau": report.tau,
        "method": report.method,
        "mape": report.mape,
        "pseudo_r2": report.pseudo_r2,
        "n_predictions": int(report.predictions.shape[0]),
        "predictions": _listify(report.predictions),
        "actuals": _listify(report.actuals),
        "failures": list(report.failures),
        "meta": metadata(seed),
    }


def summary_rows(spec, tau, summaries):
    """Flatten simulation summaries into CSV rows."""
    rows = []
    for method in sorted(summaries):
        s = summaries[method]
        rows.append(
            [
                method, spec.n, spec.d, spec.m,
                f"{spec.noise.family}:{_fmt(spec.noise.param)}", _fmt(tau), s.reps,
                _fmt(s.l1_median), _fmt(s.l1_iqr), _fmt(s.tpr_mean), _fmt(s.tpr_se),
                _fmt(s.fpr_mean), _fmt(s.fpr_se),
            ]
        )
    return rows


SUMMARY_HEADER = [
    "method", "n", "d", "m", "noise", "tau", "reps",
    "l1_median", "l1_iqr", "tpr_mean", "tpr_se", "fpr_mean", "fpr_se",
]
