"""Command-line surface: basis checks, analysis, reconstruction, spectra, filters.

Every subcommand reads/writes CSV and JSON only; plotting is left to external
tools. Outputs are deterministic: identical inputs and flags produce
byte-identical files, with floats serialized by ``repr`` (shortest lossless
form).

Handlers read the parsed arguments directly, once ``_validate`` has checked
the run shape and tolerances; the library checks the rest. Exit codes: 0
success; 1 unreadable or unparseable inputs; 2 domain failures (failed basis
checks, dependent basis, empty band, invalid run shape, depth, phase or
tolerance, or a run shape too large to allocate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

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
)
from .decompose import (
    PRUNING_RULES,
    analyze_direct,
    analyze_indirect,
    combined_spectrum,
    load_decomposition,
    reconstruct,
    residual,
    save_decomposition,
)
from .errors import ConfigurationError, GenharmError, _integer, _tolerance
from .files import write_csv, write_json
from .signals import (
    PeriodicSignal,
    _band,
    _check_sample_count,
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
    if "samples" in args:
        _check_sample_count(args.samples)
    if "order" in args:
        _integer(args.order, "--order", 1)
    for name in ("eps_ind", "eps_conv", "residual_tol"):
        _tolerance(getattr(args, name, 0.0), "--" + name.replace("_", "-"))


# --- input loading (failures here are exit code 1) ----------------------------


def _load(what: str, loader, path):
    """``loader(path)``; a missing path, or a file that cannot be read or parsed, exits 1."""
    if path is None:
        raise _LoadError(f"an input {what} is required: --in <path>")
    try:
        return loader(path)
    except (OSError, GenharmError) as exc:
        raise _LoadError(f"cannot load {what} {path!r}: {exc}") from exc


def _load_basis(args: argparse.Namespace):
    """The builtin pair, or the pair or schedule in the JSON file, that --basis names.

    A builtin is built outside ``_load``: an unusable --depth, --phase-s or
    --phase-r is refused by ``builtin_basis`` itself, a domain failure.
    """
    if args.basis is None:
        raise _LoadError("a basis is required: --basis <builtin name or JSON path>")
    if args.basis in BUILTIN_KINDS:
        return builtin_basis(args.basis, args.phase_s, args.phase_r, args.depth)
    return _load("basis", load_basis, args.basis)


def _require_out(args: argparse.Namespace) -> str:
    if args.out is None:
        raise ConfigurationError("an output path is required: --out <path>")
    return args.out


# --- subcommand handlers -------------------------------------------------------


def _run_check_basis(args: argparse.Namespace) -> int:
    pair = _load_basis(args)
    if not isinstance(pair, BasisPair):
        raise _LoadError(f"check-basis takes a basis pair, and {args.basis!r} holds a schedule")
    independence = check_independence(pair, args.eps_ind)
    convergence = check_convergence(pair, args.eps_conv)
    ortho = classify_orthogonality(pair, args.order)
    bounds = frame_bounds(pair, args.order)
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
        reports = {"independence": independence, "convergence": convergence,
                   "orthogonality": ortho, "frame_bounds": bounds}
        data = {"label": label, **{name: asdict(report) for name, report in reports.items()}}
        data["orthogonality"].update(horizontal=ortho.horizontal_label,
                                     vertical=ortho.vertical_label)
        write_json(data, args.json_out)
    return 0 if (independence and convergence) else 2


def _noise_start(res_spec, tol: float) -> int | None:
    """The first harmonic whose sine or cosine coefficient exceeds tol, if any."""
    loud = np.flatnonzero(np.maximum(np.abs(res_spec.a), np.abs(res_spec.b)) > tol)
    return int(loud[0]) + 1 if loud.size else None


def _run_analyze(args: argparse.Namespace) -> int:
    f = _load("signal", read_signal_csv, args.input)
    basis = _load_basis(args)
    if args.method == "direct":
        d = analyze_direct(f, basis, args.order, args.pruning, args.eps_ind)
    else:
        d = analyze_indirect(f, basis, args.order, args.eps_ind)
    approx = reconstruct(d, f.n)
    res = PeriodicSignal(f.samples - approx.samples)
    res_spec = analyze_fourier(res, _band(f.n))
    start = _noise_start(res_spec, args.residual_tol)
    print(f"method: {d.method}")
    print(f"c0: {d.c0!r}")
    print(f"residual norm: {norm(res)!r}")
    if start is None:
        print(f"noise starts at: none within band {_band(f.n)}")
    else:
        print(f"noise starts at: {start}")
    for note in d.warnings:
        print(f"warning: {note}")
    save_decomposition(d, _require_out(args))
    if args.recon_out is not None:
        write_signal_csv(approx, args.recon_out)
    return 0


def _run_reconstruct(args: argparse.Namespace) -> int:
    d = _load("decomposition", load_decomposition, args.input)
    write_signal_csv(reconstruct(d, args.samples), _require_out(args))
    return 0


def _run_spectrum(args: argparse.Namespace) -> int:
    d = _load("decomposition", load_decomposition, args.input)
    gs = generalized_spectrum(d)
    write_spectrum_csv(gs, _require_out(args))
    if args.json_out is not None:
        # the reconstruction's power at --samples, read off its coefficients
        lhs = parseval_power(combined_spectrum(d, _band(args.samples)))
        write_json(
            {"total": gs.total(), "c0_sq": gs.c0_sq, "parseval_lhs": lhs},
            args.json_out,
        )
    return 0


def _run_filter(args: argparse.Namespace) -> int:
    d = _load("decomposition", load_decomposition, args.input)
    if args.keep_from is None or args.keep_to is None:
        raise ConfigurationError("filter requires --keep-from and --keep-to")
    kept = band_filter(d, args.keep_from, args.keep_to)
    save_decomposition(kept, _require_out(args))
    if args.recon_out is not None:
        write_signal_csv(reconstruct(kept, args.samples), args.recon_out)
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    f = _load("signal", read_signal_csv, args.input)
    basis = _load_basis(args)
    d_ind = analyze_indirect(f, basis, args.order, args.eps_ind)
    d_dir = analyze_direct(f, basis, args.order, args.pruning, args.eps_ind)
    rms_ind = norm(residual(f, d_ind))
    rms_dir = norm(residual(f, d_dir))
    write_csv(
        _require_out(args),
        ("k", "A_direct", "B_direct", "A_indirect", "B_indirect"),
        [(k, *row) for k, row in
         enumerate(np.hstack((d_dir.coeffs[:, 1:], d_ind.coeffs[:, 1:])).tolist(), start=1)],
    )
    print(f"rms residual (direct, N={args.order}): {rms_dir!r}")
    print(f"rms residual (indirect, N={args.order}): {rms_ind!r}")
    for d in (d_dir, d_ind):
        for note in d.warnings:
            print(f"warning ({d.method}): {note}")
    if args.json_out is not None:
        write_json(
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
    f = _load("signal", read_signal_csv, args.input)
    spec = analyze_fourier(f, min(args.order, _band(f.n)))
    # harmonic 0 carries the mean in the cosine column
    write_csv(_require_out(args), ("k", "a", "b"), [(0, 0.0, spec.c0), *spec.terms()])
    return 0


# Every option a subcommand can take; each subcommand declares only those its
# handler reads. --samples on analyze and compare is accepted but unread: their
# grid is the input CSV's.
_OPTIONS = {
    "signal": ("--in", {"dest": "input", "help": "input signal CSV"}),
    "decomposition": ("--in", {"dest": "input", "help": "input decomposition JSON"}),
    "order": ("--order", {"type": int, "default": DEFAULT_ORDER, "help": "analysis order N"}),
    "samples": ("--samples", {"type": int, "default": DEFAULT_SAMPLES, "help": "grid size n"}),
    "out": ("--out", {"help": "primary output path"}),
    "json-out": ("--json-out", {"help": "JSON report path"}),
    "recon-out": ("--recon-out", {"help": "also write the reconstruction CSV"}),
    "basis": ("--basis", {"help": "builtin basis name, or JSON path of a pair or schedule"}),
    "phase-s": ("--phase-s", {"type": float, "help": "S phase shift in turns (builtin bases)"}),
    "phase-r": ("--phase-r", {"type": float, "help": "R phase shift in turns (builtin bases)"}),
    "depth": ("--depth", {"type": int, "default": DEFAULT_DEPTH,
                          "help": "harmonic depth Q for builtin bases"}),
    "eps-ind": ("--eps-ind", {"type": float, "default": EPS_INDEPENDENCE,
                              "help": "independence tolerance"}),
    "eps-conv": ("--eps-conv", {"type": float, "default": EPS_CONVERGENCE,
                                "help": "convergence tolerance"}),
    "method": ("--method", {"choices": ("direct", "indirect"), "default": "indirect"}),
    "pruning": ("--pruning", {"choices": PRUNING_RULES, "default": "paper"}),
    "residual-tol": ("--residual-tol", {"type": float, "default": DEFAULT_RESIDUAL_TOL,
                                        "help": "threshold for reporting where residual "
                                                "content starts"}),
    "keep-from": ("--keep-from", {"type": int, "help": "first harmonic kept"}),
    "keep-to": ("--keep-to", {"type": int, "help": "last harmonic kept"}),
}

_BASIS = "basis phase-s phase-r depth eps-ind"

# subcommand -> (handler, help, the options it reads)
_COMMANDS = {
    "check-basis": (_run_check_basis, "run validity checks on a basis pair",
                    f"{_BASIS} eps-conv order json-out"),
    "analyze": (_run_analyze, "decompose a signal CSV over a basis or schedule",
                f"signal {_BASIS} method pruning order samples out recon-out "
                "residual-tol"),
    "reconstruct": (_run_reconstruct, "sample a decomposition JSON to a signal CSV",
                    "decomposition samples out"),
    "spectrum": (_run_spectrum, "write the generalized spectrum of a decomposition",
                 "decomposition samples out json-out"),
    "filter": (_run_filter, "keep a band of components, zeroing the rest",
               "decomposition keep-from keep-to samples out recon-out"),
    "compare": (_run_compare, "direct vs indirect coefficients on one signal",
                f"signal {_BASIS} pruning order samples out json-out"),
    "fourier": (_run_fourier, "plain sine/cosine coefficients of a signal CSV",
                "signal order out"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genharm",
        description="Frequency analysis of periodic signals over two-function bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names.split():
            flag, kwargs = _OPTIONS[name]
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate(args)
        return _COMMANDS[args.command][0](args)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GenharmError, MemoryError) as exc:  # MemoryError: a run shape past memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
