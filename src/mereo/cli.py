"""Command-line interface: certifications, searches, scans, and demos.

Every command emits a single JSON report with the full configuration echoed
back (tolerances and seeds included), so any run can be replayed from its
own output.  Scans additionally write RFC 4180 CSV.  Exit codes: 0 success,
2 input error, 3 invariant violation detected during the run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import InvariantViolation, Tolerances, active_tolerances
from .doubleket import AmplitudeMatrix
from .holism import (
    HolismVerdict,
    NontrivialityConvention,
    ProductProperty,
    certify_rank1,
    lattice_amplitudes,
    make_holistic,
    marginal_entropy,
    product_commutator_norm,
)
from .io import (
    PRESET_NAMES,
    load_matrix,
    matrix_to_json_dict,
    preset_amplitude,
    random_amplitude,
)
from .linalg import SystemDims, frob
from .properties import (
    Property,
    State,
    Verdict,
    has_property,
    property_from_span,
    symmetric_projector,
)
from .search import SearchConfig, brute_force_grid_d2, density_scan, minimize, parametrize_projector
from .transform import extract_property, from_property


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


def _property_dict(p: Property) -> dict:
    d = matrix_to_json_dict(p.matrix)
    d["rank"] = p.rank
    return d


def _witness_dict(amp: AmplitudeMatrix, witness: ProductProperty | None,
                  tols: Tolerances) -> dict | None:
    if witness is None:
        return None
    return {
        "p": _property_dict(witness.p),
        "q": _property_dict(witness.q),
        "replay_commutator_norm": product_commutator_norm(amp, witness, tols=tols),
        "cooccurrence_weight": frob(
            witness.p.matrix @ amp.matrix @ witness.q.matrix.T
        ),
    }


def _verdict_dict(amp: AmplitudeMatrix, verdict: HolismVerdict, tols: Tolerances) -> dict:
    return {
        "holistic": verdict.holistic,
        "strictly_no_commuting_product": verdict.strictly_no_commuting_product,
        "rank": verdict.rank,
        "dims": list(verdict.dims),
        "convention": verdict.convention.value,
        "lambda1_witness": _witness_dict(amp, verdict.lambda1_witness, tols),
        "lambda0_witness": _witness_dict(amp, verdict.lambda0_witness, tols),
    }


def _conventions_for_flag(flag: str) -> list[NontrivialityConvention]:
    if flag == "bothreport":
        return [NontrivialityConvention.AT_LEAST_ONE, NontrivialityConvention.BOTH]
    return [NontrivialityConvention.from_flag(flag)]


def cmd_certify(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    verdicts = {}
    for conv in _conventions_for_flag(args.convention):
        verdicts[conv.value] = _verdict_dict(amp, certify_rank1(amp, conv, tols=tols), tols)
    return {
        "gamma": matrix_to_json_dict(amp.matrix),
        "gamma_source": source,
        "dims": list(amp.dims),
        "singular_values": [float(x) for x in amp.singular_values],
        "verdicts": verdicts,
    }


def cmd_search(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    cfg = SearchConfig(
        rank_p=args.rank_p,
        rank_q=args.rank_q,
        restarts=args.restarts,
        exclude_exclusive=args.exclude_exclusive,
        rng_seed=args.seed,
    )
    result = minimize(amp, cfg, tols=tols)
    out = {
        "gamma_source": source,
        "dims": list(amp.dims),
        "min_value": result.min_value,
        "cooccurrence_weight": result.cooccurrence_weight,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "argmin_p": _property_dict(result.argmin_p),
        "argmin_q": _property_dict(result.argmin_q),
        "grid_oracle": None,
    }
    if args.oracle:
        if tuple(amp.dims) != (2, 2):
            raise ValueError("--oracle requires dims (2, 2)")
        grid_min, angles = brute_force_grid_d2(amp, args.oracle_resolution, args.exclude_exclusive)
        out["grid_oracle"] = {
            "min_value": grid_min,
            "angles": list(angles),
            "resolution": args.oracle_resolution,
        }
    return out


def cmd_density(args, tols: Tolerances) -> dict:
    dims = SystemDims(args.dims[0], args.dims[1])
    report = density_scan(dims, args.samples, args.seed, tols=tols)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["sample_index", "smallest_singular_value", "holistic_atleastone", "holistic_both"]
            )
            for i in range(report.samples):
                writer.writerow([
                    i,
                    repr(float(report.smallest_singular_values[i])),
                    "true" if report.holistic_at_least_one[i] else "false",
                    "true" if report.holistic_both[i] else "false",
                ])
    return {
        "dims": list(dims),
        "samples": report.samples,
        "fraction_atleastone": report.fraction_at_least_one,
        "fraction_both": report.fraction_both,
        "fraction_smallest_below_rank_tol": report.fraction_smallest_below_rank_tol,
        "histogram": {
            "edges": [float(x) for x in report.histogram_edges],
            "counts": [int(x) for x in report.histogram_counts],
        },
        "csv_path": args.csv,
    }


def cmd_lattice(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    members = lattice_amplitudes(amp, args.k, args.seed, tols=tols)
    conv = NontrivialityConvention.from_flag(
        args.convention if args.convention != "bothreport" else "atleastone"
    )
    props = [make_holistic(m, tols=tols) for m in members]
    # members are unit vectors v_i, so with g_ij = <v_i, v_j> the projector
    # norms follow from one Gram row each: ||P_i P_j|| = |g_ij| and
    # ||[P_i, P_j]|| = sqrt(2) |g_ij| ||v_j - g_ij v_i||, which unlike
    # sqrt(2 |g|^2 (1 - |g|^2)) does not cancel on the diagonal
    vecs = np.array([m.matrix.reshape(-1) for m in members])
    comm = np.empty((len(members), len(members)))
    prod = np.empty_like(comm)
    for i, v in enumerate(vecs):
        g = vecs @ v.conj()
        prod[i] = np.abs(g)
        comm[i] = np.sqrt(2.0) * prod[i] * np.linalg.norm(vecs - g[:, None] * v, axis=1)
    total = sum(p.matrix for p in props)
    member_records = []
    for m, p in zip(members, props):
        verdict = certify_rank1(m, conv, tols=tols)
        member_records.append({
            "amplitude": matrix_to_json_dict(m.matrix),
            "projector": _property_dict(p),
            "rank": verdict.rank,
            "holistic": verdict.holistic,
            "smallest_singular_value": float(m.singular_values[-1]),
        })
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "k": args.k,
        "convention": conv.value,
        "members": member_records,
        "pairwise_commutator_norms": comm.tolist(),
        "pairwise_product_norms": prod.tolist(),
        "completeness_deviation": frob(total - np.eye(total.shape[0])),
    }


def cmd_entropy(args, tols: Tolerances) -> dict:
    amp, source = _resolve_amplitude(args)
    s_whole, s_part = marginal_entropy(amp)
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "s_whole": s_whole,
        "s_part": s_part,
        "singular_values": [float(x) for x in amp.singular_values],
    }


def _demo_membership_items(tols: Tolerances) -> list[dict]:
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    up = property_from_span([e0], 2, tols=tols)
    down = property_from_span([e1], 2, tols=tols)
    state_up = State(np.outer(e0, e0), tols=tols)
    sideways = (e0 + e1) / np.sqrt(2.0)
    state_side = State(np.outer(sideways, sideways), tols=tols)
    verdicts = (
        has_property(state_up, up, tols=tols).verdict,
        has_property(state_up, down, tols=tols).verdict,
        has_property(state_side, up, tols=tols).verdict,
    )
    item1 = {
        "name": "two_level_membership",
        "passed": verdicts == (Verdict.HAS, Verdict.HAS_NOT, Verdict.MEANINGLESS),
        "details": [v.value for v in verdicts],
    }

    basis4 = np.eye(4)
    even = property_from_span([basis4[0], basis4[2]], 4, tols=tols)
    rho_mix = 0.25 * np.outer(basis4[0], basis4[0]) + 0.75 * np.outer(basis4[2], basis4[2])
    sup = (basis4[0] + basis4[2]) / np.sqrt(2.0)
    rho_sup = np.outer(sup, sup)
    even_verdicts = (
        has_property(State(rho_mix, tols=tols), even, tols=tols).verdict,
        has_property(State(rho_sup, tols=tols), even, tols=tols).verdict,
    )
    item2 = {
        "name": "even_subspace_membership",
        "passed": even_verdicts == (Verdict.HAS, Verdict.HAS),
        "details": [v.value for v in even_verdicts],
    }

    sym = symmetric_projector(2, tols=tols)
    both_up = np.zeros(4)
    both_up[0] = 1.0
    singlet = np.zeros(4)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    sym_verdicts = (
        has_property(State(np.outer(both_up, both_up), tols=tols), sym, tols=tols).verdict,
        has_property(State(np.outer(singlet, singlet), tols=tols), sym, tols=tols).verdict,
    )
    item3 = {
        "name": "symmetric_subspace_membership",
        "passed": sym_verdicts == (Verdict.HAS, Verdict.HAS_NOT),
        "details": [v.value for v in sym_verdicts],
    }
    return [item1, item2, item3]


def cmd_demo(args, tols: Tolerances) -> dict:
    items = _demo_membership_items(tols)

    d = 3
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([20260809, i])
        rank = 1 + i % (d - 1)
        proj = parametrize_projector(rng.normal(size=d * d), d, rank, tols=tols)
        recovered = extract_property(from_property(proj, tols=tols), tols=tols)
        worst = max(worst, frob(recovered.matrix - proj.matrix))
    items.append({
        "name": "projector_transformation_roundtrip",
        "passed": worst <= 1e-10,
        "details": {"max_deviation": worst, "projectors": 10, "dim": d},
    })

    return {"items": items, "all_passed": all(item["passed"] for item in items)}


def _config_echo(args, tols: Tolerances) -> dict:
    echo = {"tolerances": tols.as_dict()}
    skip = {"command", "func", "out"}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            echo[key] = value
    return echo


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mereo",
        description="Certify joint quantum properties against factorized ones.",
    )
    parser.add_argument("--version", action="version", version=f"mereo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")
        p.add_argument("--tol-rank", type=float, metavar="X",
                       help="override the singular-value rank tolerance")

    p_cert = sub.add_parser("certify", help="analytic holism certification")
    _add_gamma_source(p_cert)
    p_cert.add_argument("--convention", choices=["atleastone", "both", "bothreport"],
                        default="atleastone")
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_search = sub.add_parser("search", help="numerical commutant search")
    _add_gamma_source(p_search)
    p_search.add_argument("--seed", type=int, default=0, help="restart seed stream")
    p_search.add_argument("--restarts", type=int, default=32)
    p_search.add_argument("--rank-p", type=int, default=1)
    p_search.add_argument("--rank-q", type=int, default=1)
    p_search.add_argument("--exclude-exclusive", action="store_true",
                          help="penalize the exclusive branch (co-occurring search)")
    p_search.add_argument("--oracle", action="store_true",
                          help="compare against the exhaustive Bloch grid (dims (2,2) only)")
    p_search.add_argument("--oracle-resolution", type=int, default=24)
    common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_density = sub.add_parser("density", help="Monte Carlo holism fraction scan")
    p_density.add_argument("--dims", type=int, nargs=2, metavar=("A", "B"), required=True)
    p_density.add_argument("--samples", type=int, default=1000)
    p_density.add_argument("--seed", type=int, default=0)
    p_density.add_argument("--csv", metavar="PATH", help="write per-sample rows here")
    common(p_density)
    p_density.set_defaults(func=cmd_density)

    p_lattice = sub.add_parser("lattice", help="compatible family of joint properties")
    _add_gamma_source(p_lattice)
    p_lattice.add_argument("--k", type=int, required=True)
    p_lattice.add_argument("--seed", type=int, default=0)
    p_lattice.add_argument("--convention", choices=["atleastone", "both", "bothreport"],
                           default="atleastone")
    common(p_lattice)
    p_lattice.set_defaults(func=cmd_lattice)

    p_entropy = sub.add_parser("entropy", help="joint vs marginal entropy")
    _add_gamma_source(p_entropy)
    common(p_entropy)
    p_entropy.set_defaults(func=cmd_entropy)

    p_demo = sub.add_parser("demo", help="built-in worked examples")
    common(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tols = active_tolerances()
        if getattr(args, "tol_rank", None) is not None:
            tols = replace(tols, tol_rank=float(args.tol_rank))
        t_start = time.perf_counter()
        results = args.func(args, tols)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t_start

    report = {
        "command": args.command,
        "version": __version__,
        "config_echo": _config_echo(args, tols),
        "results": results,
        "timings": {"total_s": elapsed},
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)

    if args.command == "demo" and not results["all_passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
