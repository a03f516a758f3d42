"""Command-line interface.

Subcommands: validate, attractor, conditions, ktheory, report, examples.
Exit codes: 0 = computed (whatever the verdicts), 2 = input error,
3 = resource or budget error.
"""

import argparse
import sys
from pathlib import Path

from .attractor import invariant_list, write_point_cloud_csv
from .datasets import bundled_text, list_bundled, load_bundled
from .errors import BudgetExceededError, ResolutionError, SpecValidationError
from .graph import vertex_matrix
from .ktheory import IntMatrix
from .render import image_shape, render_attractor
from .reports import build_analysis_report, ktheory_lines, ktheory_summary, \
    reference_lines, render_json, render_text
from .specio import parse_spec

DEFAULT_DEPTH = 10
DEFAULT_TOL = 1e-6


def _resolve_spec(token):
    path = Path(token)
    if path.exists():
        return parse_spec(path)
    if token in list_bundled():
        return load_bundled(token)
    raise SpecValidationError(
        f"{token!r} is neither a file nor a bundled example "
        f"(bundled: {', '.join(list_bundled())})")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mwlab",
        description="Graph-directed iterated function systems: attractors, "
                    "structural conditions, and graph-algebra K-theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a system description")
    p.add_argument("spec", help="path to a JSON document or a bundled name")

    p = sub.add_parser("attractor", help="compute the invariant set")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--csv", type=Path, help="write the point cloud as CSV")
    p.add_argument("--png", type=Path, help="render the point cloud as PNG")
    p.add_argument("--px", type=int, default=512, help="image width in pixels")

    p = sub.add_parser("conditions", help="run the structural condition checks")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ktheory", help="K-groups of the graph algebra")
    p.add_argument("spec", nargs="?", help="system document or bundled name")
    p.add_argument("--matrix", help='vertex matrix as "a,b;c,d"')

    p = sub.add_parser("report", help="full analysis: conditions, residuals, K-theory")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("examples", help="list or export the bundled examples")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out", type=Path, help="output path for export")
    return parser


def _cmd_validate(args, out):
    spec = _resolve_spec(args.spec)
    out.write(f"ok: {spec.name or args.spec}\n")
    out.write(f"  dimension: {spec.dimension}\n")
    out.write(f"  vertices: {len(spec.graph.vertices)}   "
              f"edges: {len(spec.graph.edges)}\n")
    out.write(f"  contraction bounds: c'={spec.contraction_lower!r} "
              f"c={spec.contraction_upper!r}\n")
    out.write(f"  max seed-box diameter: {spec.max_diameter!r}\n")
    out.write(f"  open-set candidate: "
              f"{'present' if spec.open_sets else 'absent'}\n")
    return 0


def _refuse_unwritable(path):
    """Raise an OSError for an output path that cannot be created as a file:
    one that is a directory, or whose parent is not one."""
    if path.is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(
            f"cannot write {path}: {path.parent} is not a directory")


def _cmd_attractor(args, out):
    spec = _resolve_spec(args.spec)
    # refuse what could not be written before the sweep, not after it
    for target in (args.csv, args.png):
        if target:
            _refuse_unwritable(target)
    if args.png:
        image_shape(spec, args.px)
    approx = invariant_list(spec, args.depth)
    out.write(f"computed depth-{approx.depth} approximation: "
              f"{approx.total_points()} points, error bound "
              f"{approx.error_bound!r}\n")
    if args.csv:
        paths_total, points_total = write_point_cloud_csv(spec, approx, args.csv)
        out.write(f"wrote {args.csv} ({points_total} rows, "
                  f"{paths_total - points_total} deduplicated)\n")
    if args.png:
        shape = render_attractor(spec, approx, args.png, px=args.px)
        out.write(f"wrote {args.png} ({shape[1]}x{shape[0]})\n")
    return 0


def _cmd_conditions(args, out, with_residuals=False):
    spec = _resolve_spec(args.spec)
    report = build_analysis_report(spec, args.depth, args.tol,
                                   with_residuals=with_residuals)
    render = render_json if args.format == "json" else render_text
    out.write(render(report))
    return 0


def _cmd_ktheory(args, out):
    if args.matrix and args.spec:
        raise SpecValidationError("give either a system or --matrix, not both")
    if args.matrix:
        matrix = IntMatrix.parse(args.matrix)
        reference = None
    elif args.spec:
        spec = _resolve_spec(args.spec)
        matrix = vertex_matrix(spec.graph)
        reference = spec.reference
    else:
        raise SpecValidationError("ktheory needs a system or --matrix")
    if not matrix.is_square:
        raise SpecValidationError("vertex matrix must be square")
    if args.matrix:
        # K0 = coker(1 - A^t) needs a graph without sinks; a spec is checked
        # for sinks and sources when it loads, a bare matrix only here
        sinks = [i for i in range(matrix.rows) if not any(matrix.row(i))]
        sources = [j for j in range(matrix.cols) if not any(matrix.column(j))]
        if sinks or sources:
            raise SpecValidationError(
                "graph must have no sinks and no sources; found sink vertices "
                f"{sinks} (zero rows) and source vertices {sources} "
                "(zero columns)")
    lines = ktheory_lines(ktheory_summary(matrix))
    if reference:
        lines += reference_lines(reference)
    out.write("".join(line + "\n" for line in lines))
    return 0


def _cmd_examples(args, out):
    if args.action == "list":
        for name in list_bundled():
            out.write(name + "\n")
        return 0
    if not args.name:
        raise SpecValidationError("examples export needs a name")
    text = bundled_text(args.name)
    target = args.out or Path(f"{args.name}.json")
    target.write_text(text, encoding="utf-8")
    out.write(f"wrote {target}\n")
    return 0


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "validate":
            return _cmd_validate(args, out)
        if args.command == "attractor":
            return _cmd_attractor(args, out)
        if args.command == "conditions":
            return _cmd_conditions(args, out)
        if args.command == "ktheory":
            return _cmd_ktheory(args, out)
        if args.command == "report":
            return _cmd_conditions(args, out, with_residuals=True)
        if args.command == "examples":
            return _cmd_examples(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except (SpecValidationError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (BudgetExceededError, ResolutionError) as exc:
        err.write(f"resource error: {exc}\n")
        return 3
    except OSError as exc:
        err.write(f"io error: {exc}\n")
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
