"""Command-line interface.

Exit codes: 0 on success, 2 for usage or configuration problems and for
a file that cannot be read or written, 3 when a size cap would be
exceeded.  Every command is deterministic for fixed flags except the
timing column of `bench`.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import click

from . import __version__, methods
from .circuits import simplify_adjacent
from .constants import check_qubit_cap
from .errors import QcoolError, ResourceLimitError
from .qasm import write_qasm
from .sim import NoiseModel
from .thermo import EnergyGap, Temperature, probability_from_temperature
from .unitary import unitary_from_json

BENCH_COLUMNS = ["n", "sparse_bytes", "dense_bytes", "compose_seconds"]


def _handled(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ResourceLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (QcoolError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_float_list(text: str, flag: str) -> list[float]:
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise click.UsageError(f"{flag} has an empty item")
    try:
        return [float(x) for x in items]
    except ValueError:
        raise click.UsageError(f"{flag} expects comma-separated numbers")


def _resolve_initial(initial_p, temp_mk, freq_ghz, *, required=True):
    """Return (probability, gap or None) from the temperature flags."""
    gap = EnergyGap.from_frequency_ghz(freq_ghz) if freq_ghz is not None else None
    if initial_p is not None and temp_mk is not None:
        raise click.UsageError("give --initial-p or --temp-mk, not both")
    if initial_p is not None:
        return float(initial_p), gap
    if temp_mk is not None:
        if gap is None:
            raise click.UsageError("--temp-mk needs --freq-ghz to fix the gap")
        p = probability_from_temperature(Temperature.from_millikelvin(temp_mk), gap)
        return p, gap
    if required:
        raise click.UsageError(
            "need --initial-p, or --temp-mk together with --freq-ghz"
        )
    return None, gap


# Encodes a flat list of scalars one a line: json escapes any newline
# inside a string, so the lines are the values.
_VALUES_JSON = json.JSONEncoder(separators=("\n", ": ")).encode


def _emit(rows: list[tuple], columns: list[str], as_csv: bool, out: str | None) -> None:
    """Write rows, each a tuple of values in columns order, as CSV or as
    JSON objects."""
    if as_csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)  # None is written as an empty cell
        text = buf.getvalue()
    elif rows:
        # json.dumps([dict(zip(columns, row)) ...], indent=2) + "\n", byte
        # for byte: one pass of json's C encoder formats every value by
        # json's own rules, and a template, with each key encoded the
        # same way, lays them out.
        values = _VALUES_JSON([v for row in rows for v in row])[1:-1].split("\n")
        template = "  {\n    " + ",\n    ".join(
            json.dumps(c).replace("%", "%%") + ": %s" for c in columns
        ) + "\n  }"
        text = "[\n" + ",\n".join([template] * len(rows)) % tuple(values) + "\n]\n"
    else:
        text = "[]\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


@click.group()
@click.version_option(version=__version__, prog_name="qcool")
def cli() -> None:
    """Cooling unitaries, circuits, and method analysis for qubit registers."""


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="Method config JSON.")
@click.option("--cycles-file", type=click.Path(exists=True, dir_okay=False), help="Cycle-list JSON to synthesize directly.")
@click.option("--initial-p", type=float, help="Initial excitation probability.")
@click.option("--temp-mk", type=float, help="Initial temperature in millikelvin.")
@click.option("--freq-ghz", type=float, help="Transition frequency fixing the gap.")
@click.option("--simplify", is_flag=True, help="Cancel equal adjacent gates.")
@click.option("--out", type=click.Path(dir_okay=False), help="Output file (default stdout).")
@_handled
def generate(config_path, cycles_file, initial_p, temp_mk, freq_ghz, simplify, out):
    """Emit an OpenQASM 3 circuit."""
    if (config_path is None) == (cycles_file is None):
        raise click.UsageError("give exactly one of --config or --cycles-file")
    if cycles_file is not None:
        if (initial_p, temp_mk, freq_ghz) != (None, None, None):
            raise click.UsageError(
                "--cycles-file takes no --initial-p, --temp-mk or --freq-ghz"
            )
        unitary = unitary_from_json(cycles_file)
        # A one-round plan, capped and synthesized as a config's is.
        qubits = tuple(range(1, unitary.n_qubits + 1))
        circuit = methods._circuit(unitary.n_qubits, [methods._Round(unitary, (qubits,))])
    else:
        config = methods.config_from_json(config_path)
        p, _ = _resolve_initial(initial_p, temp_mk, freq_ghz, required=False)
        circuit = methods.build_circuit(config, p)
    if simplify:
        circuit = simplify_adjacent(circuit)
    write_qasm(circuit, sys.stdout if out is None else out)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--initial-p", type=float)
@click.option("--temp-mk", type=float)
@click.option("--freq-ghz", type=float)
@click.option("--csv", "as_csv", is_flag=True, help="CSV instead of JSON.")
@click.option("--out", type=click.Path(dir_okay=False))
@_handled
def analyze(config_path, initial_p, temp_mk, freq_ghz, as_csv, out):
    """Report final temperature, work, and circuit size for one config."""
    config = methods.config_from_json(config_path)
    p, gap = _resolve_initial(initial_p, temp_mk, freq_ghz)
    rows = list(methods._result_rows(config, [methods.check_excitation(p)], gap))
    _emit(rows, methods.RESULT_COLUMNS, as_csv, out)


@cli.command()
@click.option("--config", "config_paths", type=click.Path(exists=True, dir_okay=False), multiple=True, required=True, help="Repeatable.")
@click.option("--probs", help="Comma-separated initial excitation probabilities.")
@click.option("--temps-mk", help="Comma-separated initial temperatures (needs --freq-ghz).")
@click.option("--freq-ghz", type=float)
# Rows run in this process; --jobs is accepted for old scripts and ignored.
@click.option("--jobs", type=click.IntRange(min=1), default=1, hidden=True, expose_value=False)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False))
@_handled
def sweep(config_paths, probs, temps_mk, freq_ghz, as_csv, out):
    """Analyze configs across initial temperatures; rows in given order."""
    if (probs is None) == (temps_mk is None):
        raise click.UsageError("give exactly one of --probs or --temps-mk")
    configs = [methods.config_from_json(p) for p in config_paths]
    gap = None if freq_ghz is None else EnergyGap.from_frequency_ghz(freq_ghz)
    if temps_mk is not None:
        if gap is None:
            raise click.UsageError("--temps-mk needs --freq-ghz")
        ps = [
            probability_from_temperature(Temperature.from_millikelvin(t), gap)
            for t in _parse_float_list(temps_mk, "--temps-mk")
        ]
    else:
        ps = _parse_float_list(probs, "--probs")
    # Checked here so a bad value exits 2 before any row is computed.
    ps = [methods.check_excitation(p) for p in ps]
    # Each config's points are planned and walked together.
    rows = [row for c in configs for row in methods._result_rows(c, ps, gap)]
    _emit(rows, methods.RESULT_COLUMNS, as_csv, out)


@cli.command("noise-sweep")
@click.option("--config", "config_paths", type=click.Path(exists=True, dir_okay=False), multiple=True, required=True)
@click.option("--initial-p", type=float)
@click.option("--temp-mk", type=float)
@click.option("--freq-ghz", type=float)
@click.option("--noise-probs", required=True, help="Comma-separated depolarizing probabilities.")
@click.option("--placement", type=click.Choice(["per-gate", "per-layer"]), default="per-gate", show_default=True)
# Rows run in this process; --jobs is accepted for old scripts and ignored.
@click.option("--jobs", type=click.IntRange(min=1), default=1, hidden=True, expose_value=False)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False))
@_handled
def noise_sweep(config_paths, initial_p, temp_mk, freq_ghz, noise_probs, placement, as_csv, out):
    """Simulate configs under gate noise; final column is per noise level."""
    configs = [methods.config_from_json(p) for p in config_paths]
    p, gap = _resolve_initial(initial_p, temp_mk, freq_ghz)
    p = methods.check_excitation(p)
    # Checked here so a bad level exits 2 before any row is computed.
    levels = [
        NoiseModel(q, placement).probability
        for q in _parse_float_list(noise_probs, "--noise-probs")
    ]
    # One walk of each config's plan gives its noiseless row and every
    # nonzero level's final_p.
    rows = [
        row for c in configs
        for row in methods._result_rows(c, [p], gap, levels, placement)
    ]
    _emit(rows, methods.RESULT_COLUMNS, as_csv, out)


@cli.command()
@click.option("--min-n", type=int, default=4, show_default=True)
@click.option("--max-n", type=int, default=18, show_default=True)
@click.option("--step", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--compact", is_flag=True, help="4-byte real values instead of complex.")
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False))
@_handled
def bench(min_n, max_n, step, seed, compact, as_csv, out):
    """Sparse footprint and compose timing for random unitaries.

    The dense column is the analytic size of a 4-byte-real dense matrix,
    4 * 4**n bytes; it is never allocated.
    """
    from .unitary import random_permutation_unitary

    if min_n < 1 or max_n < min_n or step < 1:
        raise click.UsageError("need 1 <= min-n <= max-n and step >= 1")
    # The widest row is the last; refuse it before building the first.
    check_qubit_cap(max_n - (max_n - min_n) % step)
    rows = []
    for n in range(min_n, max_n + 1, step):
        u1 = random_permutation_unitary(n, seed)
        u2 = random_permutation_unitary(n, seed + 1)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            u1.compose(u2)
            best = min(best, time.perf_counter() - t0)
        sparse = u1.memory_footprint() - (12 * u1.dim if compact else 0)
        rows.append((n, sparse, 4 * 4**n, best))
    _emit(rows, BENCH_COLUMNS, as_csv, out)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
