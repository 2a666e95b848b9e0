"""Command-line surface: bound sweeps as CSV, verification runs, scheme evaluation.

Commands
--------
* ``qseal bounds dist``      -- sweep the distinguishability cap and both
                                detection-floor flavors over p in [0.5, 1].
* ``qseal bounds nfp``       -- sweep the false-negative cap over p in [0, 1]
                                for each requested message count M.
* ``qseal verify gentle``    -- randomized check of both gentle-measurement
                                inequalities; nonzero exit on any violation.
* ``qseal simulate naive``   -- permuted product-state protocol: projector
                                non-disturbance plus the measure-and-repair
                                Monte Carlo.
* ``qseal simulate achieve`` -- two-message qubit family evaluation.
* ``qseal seal eval``        -- detection metrics of a scheme file.

All numbers are printed with 17 significant digits so output is byte-stable
and parses back to the identical float.  With ``--out`` the CSV goes to the
file and a human summary to stdout; without it the CSV itself is stdout and
the summary moves to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import gentle, naive, qubit_seal, seal, states
from .linalg import as_integer
from .rng import derive_rng

# Relative slack below p = 1/M under which a bounds nfp cell still fills.
_POPULATE_TOL = 1e-12
# Largest --grid accepted; bounds the sweep's arrays and its Python loop.
MAX_GRID_POINTS = 100_001
# Largest --q accepted; 0.75**q is still a normal float there.
MAX_Q = 1_000
# Largest --M accepted; 1/M and M - 1 are exact floats up to it.
MAX_M = 2 ** 53
# Defaults of --grid (both bounds commands) and --M (bounds nfp).
DEFAULT_GRID = 101
DEFAULT_M = (2, 4, 16, 256)
_ACHIEVE_NOTE = ("note: p_dist_lower_paper is the Helstrom expression of "
                 "p_dist_lower_numeric with the Hilbert-Schmidt norm in place "
                 "of the trace norm")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        seed = as_integer(self.seed, "seed")
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", seed)


def _require_grid(points: int) -> None:
    if not 2 <= points <= MAX_GRID_POINTS:
        raise ValueError(f"grid must have 2 to {MAX_GRID_POINTS} points, got {points}")


def _require_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass
class CsvTable:
    header: list
    rows: list

    def render(self) -> str:
        width = len(self.header)
        lines = [",".join(self.header)]
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} does not match header width {width}")
            lines.append(",".join(format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


def _emit(table: CsvTable, config: RunConfig, summary_lines: list) -> None:
    text = table.render()
    summary_file = sys.stdout
    if config.output_path is None:
        sys.stdout.write(text)
        summary_file = sys.stderr
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {config.output_path} ({len(table.rows)} rows)")
    for line in summary_lines:
        print(line, file=summary_file)


def cmd_bounds_fig1(config: RunConfig, grid: int = DEFAULT_GRID) -> CsvTable:
    """Distinguishability cap and both detection floors over p in [0.5, 1],
    one call of each on the whole grid."""
    _require_grid(grid)
    ps = np.clip(np.linspace(0.5, 1.0, grid), 0.5, 1.0)
    numeric = qubit_seal.p_dist_lower_numeric(ps)  # first: its temporaries peak
    curves = (ps, seal.clamp_probability(seal.p_dist_upper_bound(ps)),
              qubit_seal.p_dist_lower_paper(ps), numeric)
    return CsvTable(["p", "p_dist_upper", "p_dist_lower_paper", "p_dist_lower_numeric"],
                    np.column_stack(curves).tolist())


def cmd_bounds_fig2(config: RunConfig, m_list=None, grid: int = DEFAULT_GRID) -> CsvTable:
    """False-negative cap over p in [0, 1]; blank where p < 1/M.  One call
    of the cap per M, on the grid points where its column is filled."""
    _require_grid(grid)
    ms = list(dict.fromkeys(as_integer(m, "M") for m in m_list or DEFAULT_M))
    too_small = [m for m in ms if m < 2]
    if too_small:
        raise ValueError(f"every M must be at least 2, got {too_small[0]}")
    too_large = [m for m in ms if m > MAX_M]
    if too_large:
        raise ValueError(f"every M must be at most {MAX_M}, got {too_large[0]}")
    ps = seal.clamp_probability(np.linspace(0.0, 1.0, grid))
    cells = np.full((grid, 1 + len(ms)), None)  # Python floats, None for a blank
    cells[:, 0] = ps
    for column, m in enumerate(ms, 1):
        filled = ps * m >= 1.0 - _POPULATE_TOL
        cells[filled, column] = seal.p_nfp_upper_bound(seal.clamp_promise(ps[filled], m), m)
    return CsvTable(["p"] + [f"p_nfp_upper_M{m}" for m in ms], cells.tolist())


def _serialize_instance(instance: gentle.GentleInstance) -> str:
    return json.dumps({
        "dim": instance.rho.dim,
        "dominant_label": instance.dominant_label,
        "epsilon": instance.epsilon,
        "rho": seal.pairs_from_array(instance.rho.matrix),
        "povm": [{"label": label, "matrix": seal.pairs_from_array(element)}
                 for label, element in instance.povm.elements],
    })


def cmd_verify_gentle(config: RunConfig, tol: float, dim: int, outcomes: int,
                      instances: int) -> tuple:
    """Randomized sweep of both disturbance inequalities.

    Returns (table, summary_lines, exit_code); exit code 1 when any instance
    violates either bound beyond ``tol``.
    """
    _require_tolerance(tol)
    rng = derive_rng(config.seed, "verify-gentle", dim, outcomes, instances)
    header = ["instance", "epsilon_target", "epsilon",
              "lhs_classic", "bound_classic", "slack_classic",
              "lhs_unknown", "bound_unknown", "slack_unknown", "satisfied"]
    rows = []
    violations = 0
    first_offender = None
    slacks = []
    for index, (target, instance, report) in enumerate(
            gentle.sweep_instances(dim, outcomes, instances, rng, tol)):
        slack_classic = report.bound_classic - report.lhs_classic
        slack_unknown = report.bound_unknown - report.lhs_unknown
        ok = report.satisfied_classic and report.satisfied_unknown
        if not ok:
            violations += 1
            if first_offender is None:
                first_offender = instance
        slacks.extend([slack_classic, slack_unknown])
        rows.append([index, target, report.epsilon,
                     report.lhs_classic, report.bound_classic, slack_classic,
                     report.lhs_unknown, report.bound_unknown, slack_unknown, ok])
    summary = [
        f"instances={instances} dim={dim} outcomes={outcomes} violations={violations}",
        ("slack min=" + format_cell(min(slacks)) + " max=" + format_cell(max(slacks)))
        if slacks else "slack min= max=",
    ]
    if first_offender is not None:
        print(_serialize_instance(first_offender), file=sys.stderr)
    return CsvTable(header, rows), summary, (1 if violations else 0)


def cmd_simulate_naive(config: RunConfig, trials: int, q: int) -> CsvTable:
    """Non-disturbance of the projector read plus the repair-attack Monte Carlo."""
    states.require_within(q, 1 <= q <= MAX_Q, "q", f"1 to {MAX_Q}")
    sigma = derive_rng(config.seed, "simulate-naive", q, "sigma")
    tau = derive_rng(config.seed, "simulate-naive", q, "tau")
    state_one, state_two = naive.build_message_states(q, sigma, tau)
    nondisturbing = naive.states_nondisturbing(state_one, state_two)
    exact = naive.mean_fidelity_exact(q)
    rows = []
    for state in (state_one, state_two):
        attack_rng = derive_rng(config.seed, "simulate-naive", q,
                                "attack", state.message)
        result = naive.simulate_qubitwise_attack(state, trials, attack_rng)
        rows.append([q, state.message, nondisturbing, result.mean_fidelity,
                     exact, result.detection_probability])
    return CsvTable(["q", "message", "nondisturbing", "mean_fidelity",
                     "mean_fidelity_exact", "detection_probability"], rows)


def cmd_simulate_achieve(config: RunConfig, p: float) -> tuple:
    """Promise, returned-state diagonals, both detection floors, phase spread;
    returns (table, [convention note], 0)."""
    family = qubit_seal.QubitSealFamily(p)
    scheme = family.scheme()
    returned_one = family.returned_state(1).matrix
    returned_two = family.returned_state(2).matrix
    row = [
        family.p,
        *scheme.read_probabilities,
        returned_one[0, 0].real, returned_one[1, 1].real,
        returned_two[0, 0].real, returned_two[1, 1].real,
        qubit_seal.p_dist_lower_paper(family.p),
        qubit_seal.p_dist_lower_numeric(family.p, family.phi),
        qubit_seal.phi_invariance_spread(family.p),
    ]
    return CsvTable(
        ["p", "promise_m1", "promise_m2",
         "returned_m1_diag0", "returned_m1_diag1",
         "returned_m2_diag0", "returned_m2_diag1",
         "p_dist_lower_paper", "p_dist_lower_numeric", "phi_spread"],
        [row]), [_ACHIEVE_NOTE], 0


def cmd_seal_eval(config: RunConfig, tol: float, scheme_path: str) -> tuple:
    """Detection metrics of a scheme file; exit 1 if a bound is violated."""
    _require_tolerance(tol)
    scheme = seal.load_scheme(scheme_path)
    report = seal.evaluate_scheme(scheme)
    header = ["m", "promise_probability", "p_dist_numeric", "p_dist_upper",
              "p_dist_upper_raw", "p_nfp_numeric", "p_nfp_upper"]
    rows = []
    violated = False
    for entry in report.per_message:
        rows.append([entry.message, entry.promise_probability,
                     entry.p_dist_numeric, entry.p_dist_upper,
                     entry.p_dist_upper_raw, entry.p_nfp_numeric,
                     entry.p_nfp_upper])
        if (entry.p_dist_numeric > entry.p_dist_upper + tol
                or entry.p_nfp_numeric > entry.p_nfp_upper + tol):
            violated = True
    rows.append([None, None, report.p_dist_numeric, report.p_dist_upper,
                 None, report.p_nfp_numeric, report.p_nfp_upper])
    summary = [
        f"scheme: M={scheme.n_messages} dimA={scheme.dim_a} dimB={scheme.dim_b} "
        f"promised_p={format_cell(scheme.promised_p)}",
        "uniform-prior averages: p_dist_numeric="
        f"{format_cell(report.p_dist_numeric)} p_nfp_numeric="
        f"{format_cell(report.p_nfp_numeric)}",
    ]
    if violated:
        summary.append("bound violation detected (see rows)")
    return CsvTable(header, rows), summary, (1 if violated else 0)


# Options read by more than one command: (option, add_argument keywords).
_GRID = ("grid", dict(type=int, default=DEFAULT_GRID,
                      help="sweep grid points (default %(default)s)"))
_TOL = ("tol", dict(type=float, default=gentle.VIOLATION_TOL,
                    help="violation tolerance (default %(default)s)"))


def _add_command(group, name: str, help_text: str, run, *arguments) -> None:
    """Subcommand ``name`` taking --seed, --out and the (option, add_argument
    keywords) ``arguments``, which ``main`` passes to ``run`` by ``dest``."""
    cmd = group.add_parser(name, help=help_text)
    cmd.add_argument("--seed", type=int, default=RunConfig.seed,
                     help="master seed; sub-streams are derived per command")
    cmd.add_argument("--out", help="CSV output path (default: CSV on stdout)")
    dests = tuple(cmd.add_argument(f"--{option}", **keywords).dest
                  for option, keywords in arguments)
    cmd.set_defaults(run=run, arguments=dests)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qseal`` parser, built once per process and shared by every
    ``main`` call; parsing does not change it.  Each subcommand binds its
    ``cmd_*`` function when the parser is first built, so rebinding that name
    later does not reach ``main``."""
    parser = argparse.ArgumentParser(
        prog="qseal",
        description="Quantum seal bound sweeps, verification runs, and scheme evaluation.")
    top = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help_text: str):
        return top.add_parser(name, help=help_text).add_subparsers(
            dest="which", required=True)

    bounds = group("bounds", "closed-form bound sweeps as CSV")
    _add_command(bounds, "dist", "distinguishability cap and floors over p",
                 cmd_bounds_fig1, _GRID)
    _add_command(bounds, "nfp", "false-negative cap over p, one column per M",
                 cmd_bounds_fig2, _GRID,
                 ("M", dict(action="append", type=int, dest="m_list", metavar="M",
                            help="message count (repeatable; default "
                                 + " ".join(map(str, DEFAULT_M)) + ")")))

    verify = group("verify", "randomized inequality verification")
    _add_command(verify, "gentle", "gentle-measurement disturbance bounds",
                 cmd_verify_gentle, _TOL,
                 ("dim", dict(type=int, default=8, help="state dimension (2..64)")),
                 ("outcomes", dict(type=int, default=4,
                                   help=f"POVM outcomes (2..{gentle.MAX_OUTCOMES})")),
                 ("instances", dict(type=int, default=1000,
                                    help="random instances to draw "
                                         f"(0..{gentle.MAX_INSTANCES})")))

    simulate = group("simulate", "protocol simulations")
    _add_command(simulate, "naive", "permuted product-state protocol",
                 cmd_simulate_naive,
                 ("trials", dict(type=int, default=100_000,
                                 help="Monte Carlo trials (default %(default)s)")),
                 ("q", dict(type=int, default=2,
                            help=f"padding registers per message (1 to {MAX_Q})")))
    _add_command(simulate, "achieve", "two-message qubit family",
                 cmd_simulate_achieve,
                 ("p", dict(type=float, default=0.75, help="promise level in (0.5, 1]")))

    seal_cmd = group("seal", "scheme-file operations")
    _add_command(seal_cmd, "eval", "evaluate detection metrics of a scheme file",
                 cmd_seal_eval, _TOL,
                 ("scheme", dict(required=True, dest="scheme_path", metavar="SCHEME",
                                 help="scheme JSON file")))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(args.seed, args.out)
        result = args.run(config, **{dest: getattr(args, dest) for dest in args.arguments})
        table, summary, code = result if isinstance(result, tuple) else (result, [], 0)
        _emit(table, config, summary)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
