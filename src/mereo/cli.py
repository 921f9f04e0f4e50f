"""Command-line interface: certifications, searches, scans, and demos.

Every command emits a one-line JSON report with the full configuration echoed
back (tolerances and seeds included), so any run can be replayed from its
own output.  Scans additionally write RFC 4180 CSV.  Exit codes: 0 success,
2 input error, 3 invariant violation detected during the run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import InvariantViolation, Tolerances
from .doubleket import AmplitudeMatrix
from .holism import (
    HolismVerdict,
    NontrivialityConvention,
    Witness,
    certify,
    commutator_norm_sq_from_n2,
    holistic_at_rank,
    lattice_amplitudes,
    marginal_entropy,
    schmidt_rank,
)
from .io import (
    PRESET_NAMES,
    load_matrix,
    preset_amplitude,
    property_to_json_dict,
    random_amplitude,
)
from .linalg import SystemDims, frob, stacked_singular_values
from .properties import (
    State,
    Verdict,
    has_property,
    property_from_span,
    smaller_side,
    symmetric_projector,
)
from .search import (
    ORACLE_RESOLUTION,
    SearchConfig,
    brute_force_grid_d2,
    density_scan,
    minimize,
    projector_from_coords,
)
from .transform import extract_property, from_property

# Largest deviation the demo's projector -> operation -> projector round trip
# may show.  The projectors are exact to ~1e-15 and extraction sums d terms,
# so anything above this is lost digits, not rounding.
DEMO_ROUNDTRIP_BOUND = 1e-10


def _table_json(table: np.ndarray) -> str:
    """``json.dumps(table.tolist())`` of a 2-D float64 table, one ``repr`` per distinct value.

    Values are told apart by their bits, so ``-0.0`` and ``0.0`` keep their
    own text.  Like ``json.dumps``, non-finite values print as ``NaN``,
    ``Infinity`` and ``-Infinity``.
    """
    bits, index = np.unique(table.ravel().view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    words = np.array(list(map(repr, values.tolist())), dtype=object)
    words[np.isnan(values)] = "NaN"
    words[values == np.inf] = "Infinity"
    words[values == -np.inf] = "-Infinity"
    rows = words[index].reshape(table.shape).tolist()
    return "[" + ", ".join(["[" + ", ".join(row) + "]" for row in rows]) + "]"


class _ReportEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` that also prints 2-D float64 ndarrays, as ``_table_json`` does.

    ``default`` stands a token in for each table and ``encode`` puts the
    table's text in its place, so the bytes are those ``json.dumps`` prints
    for the same report with ``.tolist()`` tables, and one ``json.dumps``
    call still prints the whole report.  A token holds a NUL, which no
    report string holds (argv strings cannot), so the encoder prints it as
    ``"\\u0000N"`` and prints nothing else that way.  Any other object
    raises ``json.dumps``'s ``TypeError``.
    """

    def default(self, o):
        if type(o) is np.ndarray and o.ndim == 2 and o.dtype == np.float64:
            self._tables.append(o)
            return f"\0{len(self._tables) - 1}"
        return super().default(o)

    def encode(self, o) -> str:
        self._tables = []
        text = super().encode(o)
        for i, table in enumerate(self._tables):
            text = text.replace(f'"\\u0000{i}"', _table_json(table), 1)
        return text


def _add_gamma_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", metavar="FILE", help="JSON matrix file {rows, cols, re, im}")
    parser.add_argument("--preset", choices=PRESET_NAMES, help="built-in amplitude matrix")
    parser.add_argument("--random-seed", type=int, metavar="N",
                        help="sample a unit-norm Ginibre amplitude from this seed")
    parser.add_argument("--dims", type=int, nargs=2, metavar=("A", "B"),
                        help="factor dimensions (required with --random-seed)")


def _resolve_amplitude(args) -> tuple[AmplitudeMatrix, dict]:
    chosen = [name for name, val in
              (("--gamma", args.gamma), ("--preset", args.preset), ("--random-seed", args.random_seed))
              if val is not None]
    if len(chosen) != 1:
        raise ValueError(f"choose exactly one of --gamma/--preset/--random-seed, got {chosen or 'none'}")
    if args.dims is not None and args.random_seed is None:
        # the echo would state dims the amplitude does not have
        raise ValueError(f"--dims is read only with --random-seed; {chosen[0]} fixes the dims, "
                         f"got --dims {args.dims[0]} {args.dims[1]}")
    if args.gamma is not None:
        amp = AmplitudeMatrix.normalized(load_matrix(args.gamma))
        return amp, {"kind": "file", "path": args.gamma}
    if args.preset is not None:
        return preset_amplitude(args.preset), {"kind": "preset", "name": args.preset}
    if args.dims is None:
        raise ValueError("--random-seed requires --dims A B")
    dims = SystemDims(args.dims[0], args.dims[1])
    return random_amplitude(args.random_seed, dims), {
        "kind": "random", "seed": args.random_seed, "dims": list(dims),
    }


def _witness_dict(witness: Witness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "recipe": witness.recipe,
        "replay_commutator_norm": witness.commutator_norm,
        "cooccurrence_weight": witness.cooccurrence_weight,
    }


def _verdict_dict(verdict: HolismVerdict) -> dict:
    return {
        "holistic": verdict.holistic,
        "rank": verdict.rank,
        "dims": list(verdict.dims),
        "convention": verdict.convention.value,
        "lambda1_witness": _witness_dict(verdict.lambda1_witness),
        "lambda0_witness": _witness_dict(verdict.lambda0_witness),
    }


def _conventions_for_flag(flag: str) -> list[NontrivialityConvention]:
    if flag == "bothreport":
        return [NontrivialityConvention.AT_LEAST_ONE, NontrivialityConvention.BOTH]
    return [NontrivialityConvention(flag)]


def cmd_certify(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    verdicts = {
        verdict.convention.value: _verdict_dict(verdict)
        for verdict in certify(amp, _conventions_for_flag(args.convention), tols=tols)
    }
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "singular_values": amp.singular_values.tolist(),
        "verdicts": verdicts,
    }


def cmd_search(args) -> dict:
    amp, source = _resolve_amplitude(args)
    cfg = SearchConfig(
        rank_p=args.rank_p,
        rank_q=args.rank_q,
        restarts=args.restarts,
        exclude_exclusive=args.exclude_exclusive,
        rng_seed=args.seed,
    )
    # invalid ranks or restarts exit before the grid runs; the grid rejects
    # dims other than (2, 2) before the descent runs
    cfg.validate(amp.dims)
    grid_oracle = None
    if args.oracle:
        grid_min, angles = brute_force_grid_d2(amp, ORACLE_RESOLUTION, args.exclude_exclusive)
        grid_oracle = {"min_value": grid_min, "angles": list(angles), "resolution": ORACLE_RESOLUTION}
    result = minimize(amp, cfg)
    argmin = result.argmin
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "min_value": argmin.commutator_norm,
        "cooccurrence_weight": argmin.cooccurrence_weight,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        # vars, not dataclasses.asdict: the same keys in field order, without a deep copy
        "restart_trace": [dict(vars(t)) for t in result.restart_trace],
        "argmin_p": property_to_json_dict(argmin.p),
        "argmin_q": property_to_json_dict(argmin.q),
        "grid_oracle": grid_oracle,
    }


def cmd_density(args, tols: Tolerances) -> dict:
    dims = SystemDims(args.dims[0], args.dims[1])
    report = density_scan(dims, args.samples, args.seed, tols=tols)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["sample_index", "smallest_singular_value", "holistic_atleastone", "holistic_both"]
            )
            writer.writerows(zip(
                range(report.samples),
                map(repr, report.smallest_singular_values.tolist()),
                np.where(report.holistic_at_least_one, "true", "false").tolist(),
                np.where(report.holistic_both, "true", "false").tolist(),
            ))
    return {
        "dims": list(dims),
        "samples": report.samples,
        "fraction_atleastone": report.fraction_at_least_one,
        "fraction_both": report.fraction_both,
        "fraction_smallest_below_rank_tol": report.fraction_smallest_below_rank_tol,
        "near_rank_tol_count": report.near_rank_tol_count,
        "histogram": {
            "edges": report.histogram_edges.tolist(),
            "counts": report.histogram_counts.tolist(),
        },
        "csv_path": args.csv,
    }


def cmd_lattice(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    members = lattice_amplitudes(amp, args.k, args.seed)
    s = stacked_singular_values(members)
    ranks = schmidt_rank(s, tols)
    hol_one, hol_both = holistic_at_rank(ranks, amp.dims)
    # member i's projector is |v_i><v_i|; neither it nor v_i is printed, since
    # gamma_source, k and seed fix the members.  With g_ij = <v_i, v_j>,
    # ||P_i P_j|| = |g_ij| and ||[P_i, P_j]||^2 is the closed form in
    # n2 = |g_ij|^2, with n2 = 1 on the diagonal: a projector commutes with
    # itself.  The projectors sum to vecs^T conj(vecs)
    vecs = members.reshape(args.k, -1)
    prod = np.abs(vecs.conj() @ vecs.T)
    n2 = prod * prod
    np.fill_diagonal(n2, 1.0)
    comm = np.sqrt(commutator_norm_sq_from_n2(n2))
    member_records = [
        {"rank": rank, "holistic_atleastone": one, "holistic_both": both, "smallest_singular_value": smin}
        for rank, one, both, smin in zip(ranks.tolist(), hol_one.tolist(), hol_both.tolist(), s[:, -1].tolist())
    ]
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "k": args.k,
        "members": member_records,
        # float64 tables, which main prints with _ReportEncoder
        "pairwise_commutator_norms": comm,
        "pairwise_product_norms": prod,
        "completeness_deviation": frob(vecs.T @ vecs.conj() - np.eye(vecs.shape[1])),
    }


def cmd_entropy(args) -> dict:
    amp, source = _resolve_amplitude(args)
    s_whole, s_part = marginal_entropy(amp)
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "s_whole": s_whole,
        "s_part": s_part,
        "singular_values": amp.singular_values.tolist(),
    }


def _demo_membership_items(tols: Tolerances) -> list[dict]:
    e0, e1 = np.eye(2)
    sideways = (e0 + e1) / np.sqrt(2.0)
    basis4 = np.eye(4)
    sup = (basis4[0] + basis4[2]) / np.sqrt(2.0)
    singlet = (basis4[1] - basis4[2]) / np.sqrt(2.0)
    table = [
        ("two_level_membership", property_from_span([e0], 2, tols=tols), [
            (np.outer(e0, e0), Verdict.HAS),
            (np.outer(e1, e1), Verdict.HAS_NOT),
            (np.outer(sideways, sideways), Verdict.MEANINGLESS),
        ]),
        ("even_subspace_membership", property_from_span([basis4[0], basis4[2]], 4, tols=tols), [
            (0.25 * np.outer(basis4[0], basis4[0]) + 0.75 * np.outer(basis4[2], basis4[2]), Verdict.HAS),
            (np.outer(sup, sup), Verdict.HAS),
        ]),
        ("symmetric_subspace_membership", symmetric_projector(2), [
            (np.outer(basis4[0], basis4[0]), Verdict.HAS),
            (np.outer(singlet, singlet), Verdict.HAS_NOT),
        ]),
    ]
    items = []
    for name, prop, cases in table:
        verdicts = [has_property(State(rho), prop).verdict for rho, _ in cases]
        items.append({
            "name": name,
            "passed": verdicts == [expected for _, expected in cases],
            "details": [v.value for v in verdicts],
        })
    return items


def cmd_demo(args, tols: Tolerances) -> dict:
    items = _demo_membership_items(tols)

    d = 3
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([20260809, i])
        rank = 1 + i % (d - 1)
        proj = projector_from_coords(rng.normal(size=2 * d * smaller_side(d, rank)[0]), d, rank)
        recovered = extract_property(from_property(proj))
        worst = max(worst, frob(recovered.matrix - proj.matrix))
    items.append({
        "name": "projector_transformation_roundtrip",
        "passed": worst <= DEMO_ROUNDTRIP_BOUND,
        "details": {"max_deviation": worst, "projectors": 10, "dim": d},
    })

    return {"items": items, "all_passed": all(item["passed"] for item in items)}


def _check_flags(args) -> None:
    """Reject negative seeds and sizes below 1 by flag; numpy's own messages name none.

    An ``--out`` or ``--csv`` that names a directory, or a file in a missing
    directory or under a file, is rejected here too, before the command runs
    and writes anything; so is an ``--out`` that is the ``--csv`` or
    ``--gamma`` file, which the report would overwrite.
    """
    for name in ("random_seed", "seed"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, got {value}")
    dims = getattr(args, "dims", None)
    if dims is not None and min(dims) < 1:
        raise ValueError(f"--dims must be positive, got {dims[0]} {dims[1]}")
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        if os.path.isdir(path):
            raise ValueError(f"--{flag} {path}: Is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            reason = "Not a directory" if os.path.exists(parent) else "No such file or directory"
            raise ValueError(f"--{flag} {path}: {reason}: {parent}")
    out = getattr(args, "out", None)
    # realpath matches a file not written yet; samefile also matches a hard link
    for flag in ("csv", "gamma"):
        path = getattr(args, flag, None)
        if out and path and (os.path.realpath(out) == os.path.realpath(path) or (
                os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path))):
            raise ValueError(f"--out {out} is the --{flag} file {path}")


def _config_echo(args, tols: Tolerances) -> dict:
    echo = {"tolerances": tols.as_dict()}
    skip = {"command", "out"}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            echo[key] = value
    return echo


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    The one parser is shared by every ``main`` call, so it must hold no
    per-call state: each parse returns a fresh namespace, and ``main`` looks
    the command up by name at each call, so rebinding a ``cmd_*`` takes
    effect on the next call.
    """
    parser = argparse.ArgumentParser(
        prog="mereo",
        description="Certify joint quantum properties against factorized ones.",
    )
    parser.add_argument("--version", action="version", version=f"mereo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")

    p_cert = sub.add_parser("certify", help="analytic holism certification")
    _add_gamma_source(p_cert)
    p_cert.add_argument("--convention", choices=["atleastone", "both", "bothreport"],
                        default="atleastone")
    common(p_cert)

    p_search = sub.add_parser("search", help="numerical commutant search")
    _add_gamma_source(p_search)
    p_search.add_argument("--seed", type=int, default=0, help="restart seed stream")
    p_search.add_argument("--restarts", type=int, default=32)
    p_search.add_argument("--rank-p", type=int, default=1)
    p_search.add_argument("--rank-q", type=int, default=1)
    p_search.add_argument("--exclude-exclusive", action="store_true",
                          help="penalize the exclusive branch (co-occurring search)")
    p_search.add_argument("--oracle", action="store_true",
                          help=f"compare against the exhaustive {ORACLE_RESOLUTION}x{ORACLE_RESOLUTION} "
                          "Bloch grid (dims (2,2) only)")
    common(p_search)

    p_density = sub.add_parser("density", help="Monte Carlo holism fraction scan")
    p_density.add_argument("--dims", type=int, nargs=2, metavar=("A", "B"), required=True)
    p_density.add_argument("--samples", type=int, default=1000)
    p_density.add_argument("--seed", type=int, default=0)
    p_density.add_argument("--csv", metavar="PATH", help="write per-sample rows here")
    common(p_density)

    p_lattice = sub.add_parser("lattice", help="compatible family of joint properties")
    _add_gamma_source(p_lattice)
    p_lattice.add_argument("--k", type=int, required=True)
    p_lattice.add_argument("--seed", type=int, default=0)
    common(p_lattice)

    p_entropy = sub.add_parser("entropy", help="joint vs marginal entropy")
    _add_gamma_source(p_entropy)
    common(p_entropy)

    p_demo = sub.add_parser("demo", help="built-in worked examples")
    common(p_demo)

    for p in (p_cert, p_density, p_lattice, p_demo):  # the commands that decide a rank
        p.add_argument("--tol-rank", type=float, metavar="X", help="override the singular-value rank tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        tol_rank = getattr(args, "tol_rank", None)
        tols = Tolerances() if tol_rank is None else Tolerances(tol_rank=tol_rank)
        t_start = time.perf_counter()
        command = globals()[f"cmd_{args.command}"]
        # a command that decides a rank takes --tol-rank, and only it reads tols
        results = command(args, tols) if hasattr(args, "tol_rank") else command(args)
        elapsed = time.perf_counter() - t_start
        report = {
            "command": args.command,
            "version": __version__,
            "config_echo": _config_echo(args, tols),
            "results": results,
            "timings": {"total_s": elapsed},
        }
        # no indent: CPython's C encoder only runs without one; floats print as repr either way.
        # One dumps call per report: a caller may wrap json.dumps to time and count the output
        text = json.dumps(report, cls=_ReportEncoder)
        if args.out:
            # a directory or a parent that is missing or a file was rejected before the command ran;
            # any other OSError here (no permission, say) is an input error too
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError says how much an input too large asked it to allocate
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        try:
            print(text, flush=True)
        except OSError as exc:  # a closed pipe, say; devnull keeps the flush at exit silent
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            print(f"input error: stdout: {exc}", file=sys.stderr)
            return 2

    if args.command == "demo" and not results["all_passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
