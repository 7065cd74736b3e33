"""Batch command-line front end.

Commands: ``synth`` (make test data), ``search`` (find a blur, no
restoration), ``deblur`` (find and remove one blur: a one-stage pipeline),
``pipeline`` (remove a sequence of blurs), ``roots`` (dump slice roots for
inspection).  Every command that searches writes a versioned JSON report
whose numbers are in shortest round-trip form (loss-free), and reports are
byte-identical across reruns (except the wall_time_ms fields).

Option precedence: command-line flags override the ``--config`` key=value
file, which overrides built-in defaults.  The env var ``ZEROSHEET_LOG``
(off|info|debug) controls stderr logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ZeroSheetError
from .image import (
    _check_maxval,
    convolve,
    load_image,
    save_csv,
    save_matrix_csv,
    save_pgm,
    synth_blur,
    synth_image,
)
from .restore import pipeline
from .search import SearchConfig, search_image
from .zpoly import ZeroPolynomialError, slice_roots, unit_point, ztransform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_BLUR = 3
EXIT_PARTIAL = 4

log = logging.getLogger("zerosheet.cli")
# Name of the stderr handler that ZEROSHEET_LOG puts on the zerosheet logger.
_LOG_HANDLER = "zerosheet.stderr"
# The numbered files a pipeline writes for stage i (group 1 or 2).
_STAGE_FILE = re.compile(r"blur_([1-9][0-9]*)\.csv|restored_([1-9][0-9]*)\.(?:csv|pgm)")

# The search knobs and their defaults come from SearchConfig; the other keys
# belong to the CLI.  A key's default also fixes the type its config-file
# value is parsed as.
_SEARCH_DEFAULTS: dict[str, object] = {
    f.name: f.default
    for f in dataclasses.fields(SearchConfig)
    if f.default is not dataclasses.MISSING
}
_DEFAULTS: dict[str, object] = {
    **_SEARCH_DEFAULTS,
    "seed": 7,
    "width": 40,
    "height": 40,
    "maxval": 255,
    "points": 1,
}


def write_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="ascii")


# --------------------------------------------------------------------------
# Argument plumbing
# --------------------------------------------------------------------------


def _parse_size(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        m, n = int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"blur size {text!r} is not of the form MxN") from None
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"blur size {text!r} must be positive")
    return m, n


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    return [_parse_size(tok) for tok in text.split(",") if tok.strip()]


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read_config_file(path) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ZeroSheetError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ZeroSheetError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = type(_DEFAULTS[key])
        try:
            values[key] = _parse_bool(val) if caster is bool else caster(val)
        except ValueError:
            raise ZeroSheetError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from None
    return values


def _resolve(ns: argparse.Namespace) -> dict[str, object]:
    """Merge CLI flags over config-file values over defaults."""
    file_vals = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    out = dict(_DEFAULTS)
    out.update(file_vals)
    for key in _DEFAULTS:
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            out[key] = cli_val
    return out


def _config_echo(opts: dict) -> dict:
    return {key: type(default)(opts[key]) for key, default in _SEARCH_DEFAULTS.items()}


def _build_config(opts: dict, m: int, n: int) -> SearchConfig:
    return SearchConfig(blur_m=m, blur_n=n, **_config_echo(opts))


def _out_dir(ns) -> Path:
    out = Path(ns.output or "zerosheet_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_path(ns, out: Path) -> Path:
    return Path(ns.report) if getattr(ns, "report", None) else out / "report.json"


def _stage_dict(report, restoration, wall_ms: float) -> dict:
    best = report.best
    d: dict[str, object] = {
        "blur_size": [report.blur_m, report.blur_n],
        "q": report.q,
        "axis": report.axis.value,
        "sample_phases": [float(p) for p in report.sample_phases],
        "n_prime": report.n_prime,
        "combinations_total": report.combinations_total,
        "combinations_evaluated": report.combinations_evaluated,
        "tracking_failures": report.tracking_failures,
        "enumeration_truncated": report.truncated,
        "accepted_combination": list(best.combination) if best else None,
        "sigma_min": best.sigma_min if best else None,
        "sigma_gap": best.sigma_gap if best else None,
        "realness": best.realness if best else None,
        "blur_matrix": best.h.tolist() if best else None,
    }
    if restoration is not None:
        d["restore_method"] = restoration.method.value
        d["forward_residual"] = restoration.forward_residual
        d["min_H_on_grid"] = restoration.min_H_on_grid
        d["restored_size"] = [restoration.image.width, restoration.image.height]
    d["wall_time_ms"] = int(round(wall_ms))
    return d


def _run_report(command: str, opts: dict, stages: list[dict], status: str) -> dict:
    return {
        "report_version": 1,
        "tool_version": __version__,
        "command": command,
        "config_echo": _config_echo(opts),
        "status": status,
        "per_stage": stages,
    }


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_synth(ns: argparse.Namespace) -> int:
    opts = _resolve(ns)
    maxval = int(opts["maxval"])
    _check_maxval(maxval)
    out = _out_dir(ns)
    seed = int(opts["seed"])
    width, height = int(opts["width"]), int(opts["height"])
    sizes = ns.sizes or []

    truth = synth_image(width, height, seed)
    save_pgm(truth, out / "true.pgm", maxval)
    save_csv(truth, out / "true.csv")
    print(f"true {truth.width}x{truth.height}")

    g = truth
    for i, (m, n) in enumerate(sizes, start=1):
        blur = synth_blur(m, n, seed + 1000 * i)
        save_matrix_csv(blur.pixels.T, out / f"blur_{i}.csv")
        g = convolve(g, blur)
        print(f"blur_{i} {m}x{n}")
    save_pgm(g, out / "convolved.pgm", maxval)
    save_csv(g, out / "convolved.csv")
    print(f"convolved {g.width}x{g.height}")
    return EXIT_OK


def cmd_search(ns: argparse.Namespace) -> int:
    opts = _resolve(ns)
    out = _out_dir(ns)
    m, n = ns.blur
    cfg = _build_config(opts, m, n)
    img = load_image(ns.input)

    t0 = time.perf_counter()
    report = search_image(img, cfg)
    wall = (time.perf_counter() - t0) * 1e3

    status = "OK" if report.best is not None else "NO_BLUR_FOUND"
    doc = _run_report("search", opts, [_stage_dict(report, None, wall)], status)
    write_json(doc, _report_path(ns, out))
    if report.best is not None:
        save_matrix_csv(report.best.h, out / "blur.csv")
        print(f"accepted combination {list(report.best.combination)} "
              f"sigma_gap {report.best.sigma_gap:.3e}")
        return EXIT_OK
    (out / "blur.csv").unlink(missing_ok=True)
    print("no blur of the requested size was accepted")
    return EXIT_NO_BLUR


def _cmd_stages(ns: argparse.Namespace) -> int:
    """Run ``deblur`` (one stage, unnumbered files) or ``pipeline``.

    A run that misses removes the files that a successful run would have
    written for the stages it did not complete, and a ``pipeline`` also
    removes the numbered files of every stage past its last, so that
    nothing in the output directory contradicts the report.
    """
    opts = _resolve(ns)
    maxval = int(opts["maxval"])
    _check_maxval(maxval)
    out = _out_dir(ns)
    single = ns.command == "deblur"
    sizes = [ns.blur] if single else ns.sizes
    if not sizes:
        raise ValueError("pipeline needs at least one blur size")
    cfg = _build_config(opts, *sizes[0])
    img = load_image(ns.input)

    result = pipeline(img, sizes, cfg)

    def stage_files(i: int) -> tuple[Path, Path, Path]:
        tag = "" if single else f"_{i}"
        return out / f"blur{tag}.csv", out / f"restored{tag}.pgm", out / f"restored{tag}.csv"

    stages = []
    for i, stage in enumerate(result.stages, start=1):
        image = stage.restoration.image
        stages.append(_stage_dict(stage.report, stage.restoration, stage.wall_time_ms))
        blur_path, pgm_path, csv_path = stage_files(i)
        save_matrix_csv(stage.candidate.h, blur_path)
        save_pgm(image, pgm_path, maxval)
        save_csv(image, csv_path)
        if single:
            print(f"restored {image.width}x{image.height} "
                  f"(forward residual {stage.restoration.forward_residual:.3e})")
        else:
            print(f"stage {i}: removed {stage.report.blur_m}x{stage.report.blur_n}, "
                  f"now {image.width}x{image.height}")
    if result.ok:
        status, code = "OK", EXIT_OK
    else:
        stages.append(_stage_dict(result.failure_report, None, result.failure_wall_ms))
        if result.failed_stage == 1:
            status, code = "NO_BLUR_FOUND", EXIT_NO_BLUR
        else:
            status, code = "PARTIAL", EXIT_PARTIAL
        print("no blur of the requested size was accepted" if single
              else f"stage {result.failed_stage}: no blur found, stopping")
    done = len(result.stages)
    if single:
        stale = () if result.ok else stage_files(1)
    else:
        stale = [path for path in out.iterdir()
                 if (m := _STAGE_FILE.fullmatch(path.name)) and int(m[1] or m[2]) > done]
    for path in stale:
        path.unlink(missing_ok=True)
    doc = _run_report(ns.command, opts, stages, status)
    write_json(doc, _report_path(ns, out))
    return code


def cmd_roots(ns: argparse.Namespace) -> int:
    opts = _resolve(ns)
    out = _out_dir(ns)
    img = load_image(ns.input)
    P = ztransform(img)
    base = float(opts["base_phase"])
    step = float(opts["phase_step"])
    count = int(opts["points"])
    if count < 1:
        raise ValueError("points must be >= 1")
    phases = [base + i * step for i in range(count)]
    for i, phase in enumerate(phases, start=1):
        if not math.isfinite(phase):
            raise ValueError(f"phase of point {i} is not finite: {phase}")

    entries = []
    for i, phase in enumerate(phases):
        u = unit_point(phase)
        entry: dict[str, object] = {
            "index": i + 1,
            "phase": phase,
            "u": {"re": u.real, "im": u.imag},
        }
        try:
            rs = slice_roots(P, u)
        except ZeroPolynomialError:
            entry["degenerate"] = True
            entries.append(entry)
            continue
        entry["degenerate"] = False
        entry["n_prime"] = rs.count
        entry["leading_coeff"] = {"re": rs.leading_coeff.real, "im": rs.leading_coeff.imag}
        entry["clustered"] = rs.clustered
        entry["roots"] = [
            {"re": r.real, "im": r.imag, "residual": float(res)}
            for r, res in zip(rs.roots, rs.residuals)
        ]
        entries.append(entry)

    doc = {
        "report_version": 2,
        "tool_version": __version__,
        "command": "roots",
        "input": str(ns.input),
        "points": entries,
    }
    write_json(doc, _report_path(ns, out))
    degenerate = sum(1 for e in entries if e["degenerate"])
    print(f"dumped {len(entries)} sample point(s), {degenerate} degenerate")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser / entry point
# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_search_opts: bool = True) -> None:
    p.add_argument("--output", help="output directory (default zerosheet_out)")
    p.add_argument("--report", help="report JSON path (default <output>/report.json)")
    p.add_argument("--config", help="key=value config file")
    if with_search_opts:
        p.add_argument("--base-phase", dest="base_phase", type=float)
        p.add_argument("--phase-step", dest="phase_step", type=float)
        p.add_argument("--tol-null", dest="tol_null", type=float)
        p.add_argument("--tol-real", dest="tol_real", type=float)
        p.add_argument("--tol-track-ratio", dest="tol_track_ratio", type=float)
        p.add_argument("--max-combinations", dest="max_combinations", type=int)
        p.add_argument("--early-stop", dest="early_stop", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosheet",
        description="Find and remove convolution blurs via z-transform zero tracking.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic true image, blurs, and their convolution")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sizes", type=_parse_sizes, help="blur sizes, e.g. 2x2,2x3,3x3")
    p.add_argument("--maxval", type=int, help="PGM maxval for written images")
    _add_common(p, with_search_opts=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="search an image for one blur of a given size")
    p.add_argument("--input", required=True)
    p.add_argument("--blur", type=_parse_size, required=True, metavar="MxN")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("deblur", help="search for one blur and restore the image")
    p.add_argument("--input", required=True)
    p.add_argument("--blur", type=_parse_size, required=True, metavar="MxN")
    p.add_argument("--maxval", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_stages)

    p = sub.add_parser("pipeline", help="remove a sequence of blurs")
    p.add_argument("--input", required=True)
    p.add_argument("--sizes", type=_parse_sizes, required=True, metavar="LIST")
    p.add_argument("--maxval", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_stages)

    p = sub.add_parser("roots", help="dump slice roots at one or more sample points")
    p.add_argument("--input", required=True)
    p.add_argument("--base-phase", dest="base_phase", type=float)
    p.add_argument("--phase-step", dest="phase_step", type=float)
    p.add_argument("--points", type=int, help="number of sample points to dump")
    _add_common(p, with_search_opts=False)
    p.set_defaults(func=cmd_roots)

    return parser


def _setup_logging() -> None:
    """Configure the ``zerosheet`` logger from ``ZEROSHEET_LOG``.

    Runs on every ``main`` call, so each call follows the variable as it is
    then.  The root logger is left alone; the ``zerosheet`` logger carries
    at most one stderr handler of ours.
    """
    logger = logging.getLogger("zerosheet")
    for handler in [h for h in logger.handlers if h.get_name() == _LOG_HANDLER]:
        logger.removeHandler(handler)
    level = os.environ.get("ZEROSHEET_LOG", "off").strip().lower()
    if level not in ("info", "debug"):
        logger.setLevel(logging.NOTSET)
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name(_LOG_HANDLER)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.INFO if level == "info" else logging.DEBUG)


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    ns = parser.parse_args(argv)
    log.debug("command %s", ns.command)
    try:
        return ns.func(ns)
    except (ZeroSheetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
