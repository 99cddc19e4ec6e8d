"""Output checks applied to every benchmark run of the CLI.

Each check returns a list of problems; an empty list means the output passed.
`Tally` turns those lists into the attempted/failed counts the benchmark
reports, so a problem can never pass silently.
"""
from __future__ import annotations

import itertools
import math

from workloads import POINTAVG_COLUMNS, RunInputs

# QFI >= CFI_comp >= CFI_coll holds exactly; the slack covers the 12
# significant digits of the CSV and cutoff-level probabilities.
ORDER_RTOL = 1e-9
ORDER_ATOL = 1e-12
IMBALANCE_ATOL = 1e-9
AXIS_RTOL = 1e-11
POINTAVG_RTOL = 1e-9
# program vs the dense scipy oracle at one L=3 point; the measured
# differences are about 5e-10 (QFI, relative) and 5e-13 (imbalance)
ORACLE_QFI_RTOL = 1e-6
ORACLE_IMBALANCE_ATOL = 1e-9


class Tally:
    """Outputs attempted and failed, with the first problems kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def parse_csv(text: str) -> tuple[list[str], list[list[float]], list[str]]:
    """Header, numeric rows and problems (unparseable or non-finite fields)."""
    problems = []
    lines = text.splitlines()
    if not lines:
        return [], [], ["empty file"]
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            problems.append(f"line {i}: {len(fields)} fields, "
                            f"header has {len(header)}")
            continue
        try:
            row = [float(f) for f in fields]
        except ValueError:
            problems.append(f"line {i}: non-numeric field in {line!r}")
            continue
        if not all(math.isfinite(v) for v in row):
            problems.append(f"line {i}: non-finite value in {line!r}")
            continue
        rows.append(row)
    return header, rows, problems


def check_table(text: str, inputs: RunInputs) -> list[str]:
    """Main CSV: shape, axis values, finiteness and the Fisher ordering."""
    header, rows, problems = parse_csv(text)
    if tuple(header) != inputs.header:
        return problems + [f"header {header} != expected {list(inputs.header)}"]
    n_rows = len(text.splitlines()) - 1
    expected_rows = inputs.points * (inputs.cycles + 1)
    if n_rows != expected_rows:
        problems.append(f"{n_rows} rows, config implies {expected_rows}")
    if problems:
        return problems
    n_axes = len(inputs.axes)
    expected_keys = itertools.product(*inputs.axes.values())
    col = {name: i for i, name in enumerate(header)}
    for p, key in enumerate(expected_keys):
        for n in range(inputs.cycles + 1):
            row = rows[p * (inputs.cycles + 1) + n]
            if not all(_close(a, float(b), AXIS_RTOL)
                       for a, b in zip(row[:n_axes], key)):
                problems.append(f"row {row[:n_axes]} != axis values {key}")
            if row[col["n"]] != n:
                problems.append(f"cycle index {row[col['n']]} != {n}")
            if abs(row[col["imbalance"]]) > 1.0 + IMBALANCE_ATOL:
                problems.append(f"|imbalance| > 1 in row {row}")
            qfi, comp, coll = (row[col["qfi"]], row[col["cfi_comp"]],
                               row[col["cfi_coll"]])
            if comp > qfi * (1 + ORDER_RTOL) + ORDER_ATOL:
                problems.append(f"CFI_comp {comp} > QFI {qfi} at {key}, n={n}")
            if coll > comp * (1 + ORDER_RTOL) + ORDER_ATOL:
                problems.append(f"CFI_coll {coll} > CFI_comp {comp} at "
                                f"{key}, n={n}")
            if len(problems) >= 5:
                return problems
    return problems


def check_pointavg(table_text: str, pointavg_text: str, dn: int,
                   K: int) -> list[str]:
    """Each point-average row is the mean of its dn-cycle window of the trace."""
    _, trace, problems = parse_csv(table_text)
    header, rows, pa_problems = parse_csv(pointavg_text)
    problems += pa_problems
    if tuple(header) != POINTAVG_COLUMNS:
        return problems + [f"point-average header {header}"]
    if len(rows) != K:
        return problems + [f"{len(rows)} point-average rows, expected {K}"]
    if len(trace) < K * dn + 1:
        return problems + [f"trace has {len(trace)} rows, windows need "
                           f"{K * dn + 1}"]
    for i, row in enumerate(rows, start=1):
        if row[0] != dn * (i - 0.5) or row[1] != dn * i * (i + 1) / 2:
            problems.append(f"window {i}: abscissae {row[:2]}")
        window = trace[(i - 1) * dn + 1: i * dn + 1]
        for j, name in enumerate(("qfi", "cfi_comp", "cfi_coll"), start=2):
            mean = sum(r[j] for r in window) / dn
            if not _close(row[j], mean, POINTAVG_RTOL, ORDER_ATOL):
                problems.append(f"window {i}: {name} {row[j]} != window "
                                f"mean {mean}")
    return problems


def check_identical(files: dict[str, bytes],
                    reference: dict[str, bytes]) -> list[str]:
    """Every output file is byte-identical to the reference run's."""
    return [f"{name} differs from the first run of this seed"
            for name in sorted(reference) if files.get(name) != reference[name]]


def check_oracle(program: dict, oracle: dict) -> list[str]:
    """Program imbalance and QFI against the dense reference at one point."""
    problems = []
    if not _close(program["qfi"], oracle["qfi"], ORACLE_QFI_RTOL, ORDER_ATOL):
        problems.append(f"QFI {program['qfi']} vs oracle {oracle['qfi']}")
    if abs(program["imbalance"] - oracle["imbalance"]) > ORACLE_IMBALANCE_ATOL:
        problems.append(f"imbalance {program['imbalance']} vs oracle "
                        f"{oracle['imbalance']}")
    return problems


def verify_run(exit_code: int, files: dict[str, bytes], inputs: RunInputs,
               reference: dict[str, bytes] | None) -> list[str]:
    """All checks on one CLI run; `files` maps output names to their bytes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    table = files.get("out.csv")
    if table is None:
        return ["no output table"]
    problems = check_table(table.decode(), inputs)
    if "out.meta.txt" not in files:
        problems.append("no .meta.txt sidecar")
    if inputs.workload.command == "noise":
        pointavg = files.get("out.pointavg.csv")
        if pointavg is None:
            problems.append("no point-average table")
        else:
            problems += check_pointavg(table.decode(), pointavg.decode(),
                                       int(inputs.params["dn"]),
                                       int(inputs.params["K"]))
    if reference is not None:
        problems += check_identical(files, reference)
    return problems
