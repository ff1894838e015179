"""Command-line entry point.

    icqt validate|evolve|born|icqc|suite <scenario.json> [--out DIR] [--seed N]

Exit codes: 0 success, 1 property or validation failure, 2 input error
(including an --out that is not a directory, or a report that cannot be
written).  Reports are deterministic for a fixed (scenario, seed) on one
machine at a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .born import dual_born_report, textbook_comparison
from .dynamics import ScheduleError, check_sapmc, entanglement_trajectory
from .icqc import CapacityError, run as icqc_run
from .linalg import seeded_random, subseed
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_branch_bases,
    parse_dims,
    parse_emit_state,
    parse_icqc_config,
    parse_initial_state,
    parse_segments,
    parse_times,
    parse_vector,
)
from .serialize import complex_to_pairs, write_csv, write_json
from .suite import run_property_suite
from .trinary import TrinaryState, apply_programmed, validate_informational_completeness

def cmd_validate(scenario: Scenario, out_dir: Path) -> int:
    dims = parse_dims(scenario.payload)
    pu, labels = parse_branch_bases(scenario.payload, dims)
    probe = None
    if "probe_apparatus" in scenario.payload:
        probe = parse_vector(scenario.payload["probe_apparatus"], dims.d_a, "probe_apparatus")
    report = validate_informational_completeness(pu, probe)
    doc = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "dims": [dims.d_s, dims.d_a, dims.d_p],
        **asdict(report),
        "required_rank": dims.d_s * dims.d_s,
        "branch_labels": labels,
    }
    sys.stdout.write(write_json(out_dir / "completeness.json", doc))
    return 0 if report.complete else 1


def cmd_evolve(scenario: Scenario, out_dir: Path) -> int:
    payload = scenario.payload
    dims = parse_dims(payload)
    times = parse_times(payload)
    segments = parse_segments(payload, dims, scenario.seed)
    state = parse_initial_state(payload, dims, scenario.seed)

    traj = entanglement_trajectory([(d, h) for d, h, _ in segments], state, times)
    sapmc_doc = [
        {"segment": k, "block": n, **asdict(check_sapmc(structure))}
        for k, (_, _, structures) in enumerate(segments[: len(traj.checks)])
        for n, structure in enumerate(structures)
        if structure is not None
    ] or None  # null when no reached block is structured

    rows = [[t, traj.s_psa[i], *traj.s_sa_branches[i]] for i, t in enumerate(times)]
    header = ["t", "S_PSA"] + [f"S_SA_branch_{r}" for r in range(dims.d_p)]
    write_csv(out_dir / "trajectory.csv", header, rows)

    doc = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "dims": [dims.d_s, dims.d_a, dims.d_p],
        "times": times,
        "pmc": [{"segment": k, **asdict(c)} for k, c in enumerate(traj.checks)],
        "sapmc": sapmc_doc,
        "pmc_fallback": not traj.used_factorized,
        "factorized_full_max_deviation": traj.max_deviation,
        "final_S_PSA": traj.s_psa[-1],
        "monotone_psa": np.all(np.diff(traj.s_psa) >= -1e-9),
    }
    sys.stdout.write(write_json(out_dir / "summary.json", doc))
    if not traj.used_factorized:
        sys.stderr.write("warning: measurability condition violated; dense evolution used\n")
    return 0


def cmd_born(scenario: Scenario, out_dir: Path) -> int:
    payload = scenario.payload
    dims = parse_dims(payload)
    pu, labels = parse_branch_bases(payload, dims)

    g = payload.get("g", "uniform")
    chi = parse_vector(g, dims.d_p, "g")
    system = payload.get("system_state", "uniform")
    if system == "random":
        psi = seeded_random("state", dims.d_s, subseed(scenario.seed, 3))
    else:
        psi = parse_vector(system, dims.d_s, "system_state")
    phi = parse_vector(payload.get("apparatus_state", "basis0"), dims.d_a, "apparatus_state")

    state = apply_programmed(pu, TrinaryState.from_product(dims, chi, psi, phi))
    report = dual_born_report(state)

    conv, max_dev = textbook_comparison(report, psi, pu)
    doc = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "dims": [dims.d_s, dims.d_a, dims.d_p],
        **asdict(report),
        "branch_labels": labels,
        "conventional_outcomes_sorted": conv,
        "max_outcome_deviation": max_dev,
    }
    sys.stdout.write(write_json(out_dir / "born_report.json", doc))
    return 0


def cmd_icqc(scenario: Scenario, out_dir: Path) -> int:
    config = parse_icqc_config(scenario.payload, scenario.seed)
    emit_state = parse_emit_state(scenario.payload)
    report = icqc_run(config)
    doc = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "n": config.n,
        "registers": {"n_s": config.n, "n_a": config.n_a, "n_p": config.n_p},
        "s_psa": report.s_psa,
        "s_sa_branches": report.s_sa_branches,
        "mean_s_sa": report.mean_s_sa,
        **asdict(report.born),
    }
    if emit_state:
        doc["final_state"] = complex_to_pairs(report.final_state.dense.amplitudes)
    sys.stdout.write(write_json(out_dir / "icqc_report.json", doc))
    return 0


def cmd_suite(scenario: Scenario, out_dir: Path) -> int:
    results = run_property_suite(scenario.seed)
    doc = {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "properties": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    sys.stdout.write(write_json(out_dir / "suite_report.json", doc))
    failures = [r.name for r in results if not r.passed]
    if failures:
        sys.stderr.write("failed properties: " + ", ".join(failures) + "\n")
        return 1
    return 0


# command: (the scenario kind it runs, its handler)
_COMMANDS = {
    "validate": ("trinary-build", cmd_validate),
    "evolve": ("dynamics", cmd_evolve),
    "born": ("born", cmd_born),
    "icqc": ("icqc", cmd_icqc),
    "suite": ("property-suite", cmd_suite),
}


def _out_dir(raw: str) -> Path:
    """``--out`` as a path; refused if it is, or lies under, an existing non-directory.

    Checked before the scenario is loaded, so a run that could not write its
    report does not run.
    """
    out = Path(raw)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {raw}: {existing} is not a directory")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icqt",
        description="Trinary quantum system simulator and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run a {kind} scenario")
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    args = parser.parse_args(argv)

    try:
        out_dir = _out_dir(args.out)
        scenario = load_scenario(args.scenario, seed_override=args.seed)
        expected, handler = _COMMANDS[args.command]
        if scenario.kind != expected:
            raise ScenarioError(
                f"command '{args.command}' needs kind '{expected}', scenario says '{scenario.kind}'"
            )
        return handler(scenario, out_dir)
    except (ScenarioError, ScheduleError) as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 2
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 2
    except OSError as exc:  # the --out check, or a report that could not be written
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
