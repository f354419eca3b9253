"""Command-line surface: basis checks, analysis, reconstruction, spectra, filters.

Every subcommand reads/writes CSV and JSON only; plotting is left to external
tools. Outputs are deterministic: identical inputs and flags produce
byte-identical files, with floats serialized by ``repr`` (shortest lossless
form).

Handlers read the parsed arguments directly, once ``_validate`` has checked
the run shape and tolerances. Exit codes: 0 success; 1 unreadable or
unparseable inputs; 2 domain failures (failed basis checks, dependent basis,
empty band, invalid run shape or tolerance).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .basis import (
    BUILTIN_KINDS,
    DEFAULT_DEPTH,
    EPS_CONVERGENCE,
    EPS_INDEPENDENCE,
    BasisPair,
    builtin_basis,
    check_convergence,
    check_independence,
    classify_orthogonality,
    frame_bounds,
    load_basis,
    load_schedule,
)
from .decompose import (
    Decomposition,
    analyze_direct,
    analyze_indirect,
    load_decomposition,
    reconstruct,
    residual,
    save_decomposition,
)
from .errors import ConfigurationError, GenharmError, InvalidSignalError
from .signals import (
    PeriodicSignal,
    analyze_fourier,
    norm,
    read_signal_csv,
    write_signal_csv,
)
from .spectrum import band_filter, generalized_spectrum, parseval_power, write_spectrum_csv

__all__ = ["main"]

DEFAULT_SAMPLES = 4096
DEFAULT_ORDER = 40
DEFAULT_RESIDUAL_TOL = 1e-6


class _LoadError(Exception):
    """Input could not be read or parsed; maps to exit code 1."""


def _validate(args: argparse.Namespace) -> None:
    """Reject run shapes and tolerances no subcommand can use (exit code 2)."""
    if args.samples < 4 or args.samples % 2 != 0:
        raise ConfigurationError(f"--samples must be even and >= 4, got {args.samples}")
    if args.order < 1:
        raise ConfigurationError(f"--order must be >= 1, got {args.order}")
    if args.order > args.samples // 2 - 1:
        raise ConfigurationError(
            f"--order {args.order} exceeds the band {args.samples // 2 - 1} "
            f"representable at --samples {args.samples}"
        )
    if "depth" in args and args.depth < 1:
        raise ConfigurationError(f"--depth must be >= 1, got {args.depth}")
    for name in ("eps_ind", "eps_conv", "residual_tol"):
        value = getattr(args, name, 0.0)
        if not (math.isfinite(value) and value >= 0):
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"{flag} must be finite and >= 0, got {value}")


# --- input loading (failures here are exit code 1) ----------------------------


def _load_pair(args: argparse.Namespace) -> BasisPair:
    spec = args.basis
    if spec is None:
        raise _LoadError("a basis is required: --basis <builtin name or JSON path>")
    if spec in BUILTIN_KINDS:
        try:
            return builtin_basis(spec, args.phase_s, args.phase_r, args.depth)
        except ConfigurationError as exc:
            raise _LoadError(str(exc)) from exc
    try:
        return load_basis(spec)
    except (OSError, ConfigurationError) as exc:
        raise _LoadError(f"cannot load basis {spec!r}: {exc}") from exc


def _load_analysis_basis(args: argparse.Namespace):
    """The pair or schedule requested for an analysis run."""
    if args.schedule is not None:
        try:
            return load_schedule(args.schedule)
        except (OSError, ConfigurationError) as exc:
            raise _LoadError(f"cannot load schedule {args.schedule!r}: {exc}") from exc
    return _load_pair(args)


def _load_signal(path: str | None) -> PeriodicSignal:
    if path is None:
        raise _LoadError("an input signal is required: --in <csv path>")
    try:
        return read_signal_csv(path)
    except (OSError, InvalidSignalError) as exc:
        raise _LoadError(f"cannot load signal {path!r}: {exc}") from exc


def _load_decomposition(path: str | None) -> Decomposition:
    if path is None:
        raise _LoadError("an input decomposition is required: --in <json path>")
    try:
        return load_decomposition(path)
    except (OSError, ConfigurationError) as exc:
        raise _LoadError(f"cannot load decomposition {path!r}: {exc}") from exc


def _require_out(args: argparse.Namespace) -> str:
    if args.out is None:
        raise ConfigurationError("an output path is required: --out <path>")
    return args.out


def _write_json(data: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, allow_nan=False)
        fh.write("\n")


# --- subcommand handlers -------------------------------------------------------


def _run_check_basis(args: argparse.Namespace) -> int:
    pair = _load_pair(args)
    independence = check_independence(pair, args.eps_ind)
    convergence = check_convergence(pair, args.eps_conv)
    ortho = classify_orthogonality(pair, min(args.order, 16))
    bounds = frame_bounds(pair, min(args.order, 16))
    label = pair.label or "unlabeled"
    print(f"basis: {label}")
    print(
        f"independence: {'pass' if independence else 'fail'} "
        f"(products {independence.products[0]!r}, {independence.products[1]!r})"
    )
    print(
        f"convergence: {'pass' if convergence else 'fail'} "
        f"(eigenvalues {convergence.eigenvalues[0]!r}, {convergence.eigenvalues[1]!r})"
    )
    print(f"orthogonality: horizontal {ortho.horizontal_label}, vertical {ortho.vertical_label}")
    print(f"frame bounds (N={bounds.order}): lower {bounds.lower!r}, upper {bounds.upper!r}")
    if args.json_out is not None:
        _write_json(
            {
                "label": label,
                "independence": {
                    "passed": independence.passed,
                    "products": list(independence.products),
                    "margin": independence.margin,
                },
                "convergence": {
                    "passed": convergence.passed,
                    "eigenvalues": list(convergence.eigenvalues),
                    "form": [list(row) for row in convergence.form],
                },
                "orthogonality": {
                    "horizontal": ortho.horizontal_label,
                    "vertical": ortho.vertical_label,
                    "max_horizontal": ortho.max_horizontal,
                    "max_vertical": ortho.max_vertical,
                    "k_max": ortho.k_max,
                },
                "frame_bounds": {
                    "lower": bounds.lower,
                    "upper": bounds.upper,
                    "order": bounds.order,
                },
            },
            args.json_out,
        )
    return 0 if (independence and convergence) else 2


def _noise_start(res_spec, tol: float) -> int | None:
    for k, a_k, b_k in res_spec.terms():
        if max(abs(a_k), abs(b_k)) > tol:
            return k
    return None


def _run_analyze(args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    basis = _load_analysis_basis(args)
    if args.method == "direct":
        d = analyze_direct(f, basis, args.order, args.pruning, args.eps_ind)
    else:
        d = analyze_indirect(f, basis, args.order, args.eps_ind)
    approx = reconstruct(d, f.n)
    res = PeriodicSignal(f.samples - approx.samples)
    res_spec = analyze_fourier(res, f.n // 2 - 1)
    start = _noise_start(res_spec, args.residual_tol)
    print(f"method: {d.method}")
    print(f"c0: {d.c0!r}")
    print(f"residual norm: {norm(res)!r}")
    if start is None:
        print(f"noise starts at: none within band {f.n // 2 - 1}")
    else:
        print(f"noise starts at: {start}")
    for note in d.warnings:
        print(f"warning: {note}")
    save_decomposition(d, _require_out(args))
    if args.recon_out is not None:
        write_signal_csv(approx, args.recon_out)
    return 0


def _run_reconstruct(args: argparse.Namespace) -> int:
    d = _load_decomposition(args.input)
    write_signal_csv(reconstruct(d, args.samples), _require_out(args))
    return 0


def _run_spectrum(args: argparse.Namespace) -> int:
    d = _load_decomposition(args.input)
    gs = generalized_spectrum(d)
    write_spectrum_csv(gs, _require_out(args))
    if args.json_out is not None:
        recon = reconstruct(d, args.samples)
        lhs = parseval_power(analyze_fourier(recon, args.samples // 2 - 1))
        _write_json(
            {"total": gs.total(), "c0_sq": gs.c0_sq, "parseval_lhs": lhs},
            args.json_out,
        )
    return 0


def _run_filter(args: argparse.Namespace) -> int:
    d = _load_decomposition(args.input)
    if args.keep_from is None or args.keep_to is None:
        raise ConfigurationError("filter requires --keep-from and --keep-to")
    kept = band_filter(d, args.keep_from, args.keep_to)
    save_decomposition(kept, _require_out(args))
    if args.recon_out is not None:
        write_signal_csv(reconstruct(kept, args.samples), args.recon_out)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    basis = _load_analysis_basis(args)
    d_ind = analyze_indirect(f, basis, args.order, args.eps_ind)
    d_dir = analyze_direct(f, basis, args.order, args.pruning, args.eps_ind)
    rms_ind = norm(residual(f, d_ind))
    rms_dir = norm(residual(f, d_dir))
    with open(_require_out(args), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "A_direct", "B_direct", "A_indirect", "B_indirect"])
        for (k, a_d, b_d), (_, a_i, b_i) in zip(d_dir.coeffs, d_ind.coeffs):
            writer.writerow([k, repr(a_d), repr(b_d), repr(a_i), repr(b_i)])
    print(f"rms residual (direct, N={args.order}): {rms_dir!r}")
    print(f"rms residual (indirect, N={args.order}): {rms_ind!r}")
    if args.json_out is not None:
        _write_json(
            {
                "order": args.order,
                "pruning": args.pruning,
                "rms_direct": rms_dir,
                "rms_indirect": rms_ind,
                "condition_estimate": d_dir.condition_estimate,
            },
            args.json_out,
        )
    return 0


def _run_fourier(args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    spec = analyze_fourier(f, min(args.order, f.n // 2 - 1))
    with open(_require_out(args), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "a", "b"])
        # harmonic 0 carries the mean in the cosine column
        writer.writerow([0, repr(0.0), repr(spec.c0)])
        for k, a_k, b_k in spec.terms():
            writer.writerow([k, repr(a_k), repr(b_k)])
    return 0


_HANDLERS = {
    "check-basis": _run_check_basis,
    "analyze": _run_analyze,
    "reconstruct": _run_reconstruct,
    "spectrum": _run_spectrum,
    "filter": _run_filter,
    "compare": _run_compare,
    "fourier": _run_fourier,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--order", type=int, default=DEFAULT_ORDER, help="analysis order N")
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="grid size n")
    sub.add_argument("--out", help="primary output path")
    sub.add_argument("--json-out", dest="json_out", help="JSON report path")


def _add_basis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--basis", help="builtin basis name or basis JSON path")
    sub.add_argument("--phase-s", dest="phase_s", type=float, default=None,
                     help="S phase shift in turns (builtin bases)")
    sub.add_argument("--phase-r", dest="phase_r", type=float, default=None,
                     help="R phase shift in turns (builtin bases)")
    sub.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                     help="harmonic depth Q for builtin bases")
    sub.add_argument("--eps-ind", dest="eps_ind", type=float, default=EPS_INDEPENDENCE,
                     help="independence tolerance")
    sub.add_argument("--eps-conv", dest="eps_conv", type=float, default=EPS_CONVERGENCE,
                     help="convergence tolerance")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genharm",
        description="Frequency analysis of periodic signals over two-function bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-basis", help="run validity checks on a basis pair")
    _add_common(p)
    _add_basis_flags(p)

    p = sub.add_parser("analyze", help="decompose a signal CSV over a basis or schedule")
    _add_common(p)
    _add_basis_flags(p)
    p.add_argument("--in", dest="input", help="input signal CSV")
    p.add_argument("--schedule", help="schedule JSON path")
    p.add_argument("--method", choices=("direct", "indirect"), default="indirect")
    p.add_argument("--pruning", choices=("paper", "lcm", "none"), default="paper")
    p.add_argument("--recon-out", dest="recon_out", help="also write the reconstruction CSV")
    p.add_argument("--residual-tol", dest="residual_tol", type=float,
                   default=DEFAULT_RESIDUAL_TOL,
                   help="threshold for reporting where residual content starts")

    p = sub.add_parser("reconstruct", help="sample a decomposition JSON to a signal CSV")
    _add_common(p)
    p.add_argument("--in", dest="input", help="input decomposition JSON")

    p = sub.add_parser("spectrum", help="write the generalized spectrum of a decomposition")
    _add_common(p)
    p.add_argument("--in", dest="input", help="input decomposition JSON")

    p = sub.add_parser("filter", help="keep a band of components, zeroing the rest")
    _add_common(p)
    p.add_argument("--in", dest="input", help="input decomposition JSON")
    p.add_argument("--keep-from", dest="keep_from", type=int, help="first harmonic kept")
    p.add_argument("--keep-to", dest="keep_to", type=int, help="last harmonic kept")
    p.add_argument("--recon-out", dest="recon_out", help="also write the filtered reconstruction")

    p = sub.add_parser("compare", help="direct vs indirect coefficients on one signal")
    _add_common(p)
    _add_basis_flags(p)
    p.add_argument("--in", dest="input", help="input signal CSV")
    p.add_argument("--schedule", help="schedule JSON path")
    p.add_argument("--pruning", choices=("paper", "lcm", "none"), default="paper")

    p = sub.add_parser("fourier", help="plain sine/cosine coefficients of a signal CSV")
    _add_common(p)
    p.add_argument("--in", dest="input", help="input signal CSV")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate(args)
        return _HANDLERS[args.command](args)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GenharmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
