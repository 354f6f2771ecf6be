"""Command-line entry point.

Every subcommand writes ``report.json`` containing a run manifest (resolved
configuration, input digests, seed, tool version, duration) next to the
machine-readable result; sweep-style outputs additionally write
``sweep.csv``.  Two runs with equal manifests (duration aside) produce
byte-identical result payloads: all randomness flows through ``--seed``,
which defaults to 0 and is never time-based.

Exit codes: 0 success, 2 input error (a ``ValueError`` or one of the
package's own input errors), 3 enumeration-budget refusal; anything else
is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import formula as fm
from .bounds import bounds_report
from .combinatorics import (
    growth_function,
    sauer_bound,
    sauer_poly_bound,
    shatters,
    vc_dimension,
)
from .harness import estimate_pac_probability, estimate_ucp_probability
from .learners import random_table_learner
from .model import BudgetError, InexactOracleError, Instance
from .model import as_instance, sha256, to_fraction
from .nfl import build_nfl_instance, nfl_report
from .serialize import (
    instance_to_json,
    learner_from_json,
    distribution_from_json,
    param_source_from_json,
    pool_from_json,
    space_from_json,
)


class UsageError(Exception):
    pass


def json_ready(obj):
    """Recursively convert package values to JSON-serializable data; any
    other value is a bug and raises ``TypeError``."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, Instance):
        return instance_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [json_ready(v) for v in obj]
    raise TypeError(f"no JSON form for {type(obj).__name__}")


class Inputs(dict):
    """The files a run reads, each path mapped to the SHA-256 of the bytes
    it parsed: the manifest's ``inputs``.  Every file goes through
    :meth:`text` or :meth:`json`, which read it once."""

    def text(self, path: str) -> str:
        """The file decoded as ``Path.read_text`` decodes it."""
        data = Path(path).read_bytes()
        self[path] = sha256(data).hexdigest()
        return io.TextIOWrapper(io.BytesIO(data)).read()

    def json(self, path: str):
        return json.loads(self.text(path))


def _parse_instance_list(text: str):
    """Semicolon-separated instances; commas separate vector coordinates.
    Scalar entries that parse as rationals are numeric, others are atoms."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) > 1:
            out.append(as_instance(tuple(parts)))
        else:
            try:
                out.append(as_instance(to_fraction(parts[0])))
            except ValueError:
                out.append(as_instance(parts[0]))
    if not out:
        raise UsageError("empty instance list")
    return out


def _load_pool(path_or_inline: str, inputs: Inputs):
    # "" is the empty inline list, not the current directory.
    if path_or_inline and Path(path_or_inline).exists():
        return pool_from_json(inputs.json(path_or_inline))
    return _parse_instance_list(path_or_inline)


def _parse_list(text: str, kind: type) -> list:
    """Comma-separated values of one kind; at least one is required."""
    out = [kind(v) for v in text.split(",") if v.strip()]
    if not out:
        raise UsageError(f"empty value list {text!r}")
    return out


def _resolve_learner(ref: str, space, inputs: Inputs):
    arg = ref.split(":", 1)[-1]
    if ref.startswith("builtin:"):
        return learner_from_json({"type": "builtin", "name": arg}, space)
    if ref.startswith("file:"):
        return learner_from_json(inputs.json(arg), space)
    if ref.startswith("random:"):
        return random_table_learner(space, seed=int(arg))
    raise UsageError(
        f"learner reference {ref!r} must be builtin:NAME, file:PATH, or "
        "random:SEED")


# ---------------------------------------------------------------------------
# Subcommands: each reads its files through ``inputs`` and returns
# (result, sweep_rows_or_None)


def _cmd_vcdim(args, inputs):
    space = space_from_json(inputs.json(args.space))
    pool = _load_pool(args.pool, inputs)
    verdict = vc_dimension(space, pool, limit=args.limit,
                           node_budget=args.budget)
    result = {
        "value": verdict.value,
        "status": verdict.status,
        "witness": {
            "instances": [instance_to_json(x) for x in verdict.witness_set],
            "dichotomies": {"".join(map(str, lab)): list(h.key)
                            for lab, h in sorted(verdict.witnesses.items())},
        },
        "nodes_used": verdict.nodes_used,
        "pool": [instance_to_json(x) for x in verdict.pool],
    }
    return result, None


def _cmd_growth(args, inputs):
    space = space_from_json(inputs.json(args.space))
    pool = _load_pool(args.pool, inputs)
    value = growth_function(space, args.m, pool)
    return ({"m": args.m, "value": value,
             "pool": [instance_to_json(x) for x in pool]}, None)


def _cmd_sauer(args, inputs):
    # The float bound first: it fails at once where the sum would take long.
    poly = (sauer_poly_bound(args.d, args.m)
            if args.d >= 1 and args.m > args.d + 1 else None)
    return {"d": args.d, "m": args.m, "value": sauer_bound(args.d, args.m),
            "poly": poly}, None


def _cmd_bounds(args, inputs):
    if not args.csv and (args.eps_grid is not None
                         or args.delta_grid is not None):
        raise UsageError("--eps-grid and --delta-grid only set the grid of "
                         "the --csv sweep; add --csv")
    report = bounds_report(args.d, args.eps, args.delta, m_h=args.mh,
                           m0_nmse=args.m0_nmse)
    sweep = None
    if args.csv:
        eps_grid = (_parse_list(args.eps_grid, float)
                    if args.eps_grid is not None else [args.eps])
        delta_grid = (_parse_list(args.delta_grid, float)
                      if args.delta_grid is not None else [args.delta])
        sweep = [("d", "eps", "delta", "m_h", "m0_singleton", "m0_1", "m0_2",
                  "m0_3", "m0_ucp", "m0_pac", "epsilon0")]
        for eps in eps_grid:
            for delta in delta_grid:
                r = bounds_report(args.d, eps, delta, m_h=args.mh,
                                  m0_nmse=args.m0_nmse)
                sweep.append((r.d, r.eps, r.delta, r.m_h, r.m0_singleton,
                              r.ucp.m0_1, r.ucp.m0_2, r.ucp.m0_3, r.ucp.m0,
                              r.m0_pac, r.epsilon0))
    return report.as_dict(), sweep


def _cmd_sim(args, inputs):
    """``ucp-sim``, or ``pac-sim`` with its learner resolved once."""
    space = space_from_json(inputs.json(args.space))
    dist = distribution_from_json(inputs.json(args.dist))
    m_values = _parse_list(args.m, int)
    if args.command == "pac-sim":
        estimate = functools.partial(
            estimate_pac_probability,
            _resolve_learner(args.learner, space, inputs))
    else:
        estimate = estimate_ucp_probability
    reports = [estimate(space, dist, m, args.eps, trials=args.trials,
                        seed=args.seed, exact=args.exact) for m in m_values]
    sweep = [("m", "mode", "trials", "successes", "estimate", "ci_low",
              "ci_high", "probability")]
    for r in reports:
        sweep.append((r.m, r.mode, r.trials, r.successes, r.estimate,
                      r.ci_low, r.ci_high,
                      "" if r.probability is None else str(r.probability)))
    result = (reports[0].as_dict() if len(reports) == 1
              else [r.as_dict() for r in reports])
    return result, sweep


def _cmd_nfl(args, inputs):
    instances = (_load_pool(args.instances, inputs)
                 if args.instances is not None else range(2 * args.m))
    ambient = (None if args.space == "full"
               else space_from_json(inputs.json(args.space)))
    inst = build_nfl_instance(instances, args.m, ambient, args.allow_large)
    learner = _resolve_learner(args.learner, inst.ambient, inputs)
    report = nfl_report(learner, inst)
    return report.as_dict(), None


def _formula_ast(args, inputs) -> fm.FormulaAst:
    if args.file:
        text = inputs.text(args.file)
    elif args.text is not None:
        text = args.text
    else:
        raise UsageError("provide the formula via --text or --file")
    objects = [v.strip() for v in args.objects.split(",") if v.strip()]
    params = ([v.strip() for v in args.params.split(",") if v.strip()]
              if args.params else [])
    return fm.parse_formula(text, objects=objects, params=params)


def _formula_space(args, inputs) -> fm.DefinableSpace:
    """The formula over the parameter source its flags give, built as the
    JSON source object that a space file would hold."""
    def rows(text):
        return [[v.strip() for v in row.split(",") if v.strip()]
                for row in text.split(";") if row.strip()]
    if args.params_list is not None:
        source = {"type": "explicit", "tuples": rows(args.params_list)}
    elif args.grid is not None:
        source = {"type": "grid", "axes": rows(args.grid)}
    else:
        source = {"type": "sampled", "budget": args.budget, "seed": args.seed}
    return fm.DefinableSpace(_formula_ast(args, inputs),
                             param_source_from_json(source),
                             backend=args.backend)


def _cmd_formula(args, inputs):
    if args.action == "parse":
        ast = _formula_ast(args, inputs)
        formatted = fm.format_formula(ast)
        reparsed = fm.parse_formula(formatted, ast.objects, ast.params)
        return ({"formatted": formatted,
                 "objects": list(ast.objects),
                 "params": list(ast.params),
                 "uses_exp": ast.uses_exp,
                 "round_trips": reparsed == ast}, None)
    if args.action == "eval":
        ast = _formula_ast(args, inputs)
        x = [v.strip() for v in args.x.split(",")] if args.x else []
        w = [v.strip() for v in args.w.split(",")] if args.w else []
        backend = args.backend or ast.default_backend
        value = fm.compile_formula(ast, backend)(x, w)
        return ({"value": value, "backend": backend}, None)
    if args.action == "space":
        if args.pool is None:
            raise UsageError("formula space needs --pool 'x1;x2;...'")
        space = _formula_space(args, inputs)
        pool = _load_pool(args.pool, inputs)
        table = space.dichotomies(pool)
        return ({"kind": space.kind,
                 "oracle_exact": space.oracle_exact,
                 "closed_form": (space.closed_form.name
                                 if space.closed_form else None),
                 "pool": [instance_to_json(x) for x in pool],
                 "dichotomies": sorted("".join(map(str, lab))
                                       for lab in table)},
                None)
    # argparse's choices leave "shatter" as the only other action.
    if args.instances is None:
        raise UsageError("formula shatter needs --instances 'x1;x2;...'")
    verdict = shatters(_formula_space(args, inputs),
                       _load_pool(args.instances, inputs))
    witnesses = None
    if verdict.witnesses is not None:
        witnesses = {"".join(map(str, lab)): [str(v) for v in h.key[1:]]
                     for lab, h in sorted(verdict.witnesses.items())}
    return {"status": verdict.status, "witnesses": witnesses}, None


# ---------------------------------------------------------------------------
# Parser assembly and dispatch


# argparse reads a separate value that starts with "-" as an option.
_MINUS_HELP = " (write --{0}=-3;-2;-1 when it starts with a minus sign)"
_POOL_HELP = ("pool JSON file or inline 'x1;x2;...'"
              + _MINUS_HELP.format("pool"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vclab",
        description="Finite-scale statistical learning workbench: VC "
                    "dimension, growth functions, sample-complexity bounds, "
                    "UCP/PAC simulation, no-free-lunch enumeration, and a "
                    "formula DSL for definable classifier families.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=".",
                       help="directory for report.json (and sweep.csv)")

    p = sub.add_parser("vcdim", help="VC dimension over a witness pool")
    p.add_argument("--space", required=True, help="space JSON file")
    p.add_argument("--pool", required=True, help=_POOL_HELP)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="max subsets to test before settling for lower-bound")
    add_out(p)
    p.set_defaults(fn=_cmd_vcdim)

    p = sub.add_parser("growth", help="growth function value over a pool")
    p.add_argument("--space", required=True)
    p.add_argument("--pool", required=True, help=_POOL_HELP)
    p.add_argument("--m", type=int, required=True)
    add_out(p)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("sauer", help="binomial-sum and polynomial growth bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_out(p)
    p.set_defaults(fn=_cmd_sauer)

    p = sub.add_parser("bounds", help="sample-complexity bound report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mh", type=int, default=1)
    p.add_argument("--m0-nmse", dest="m0_nmse", type=int, default=1)
    p.add_argument("--csv", action="store_true",
                   help="also write a sweep.csv over the eps/delta grids")
    p.add_argument("--eps-grid", dest="eps_grid", default=None,
                   help="comma-separated eps values for the --csv sweep")
    p.add_argument("--delta-grid", dest="delta_grid", default=None,
                   help="comma-separated delta values for the --csv sweep")
    add_out(p)
    p.set_defaults(fn=_cmd_bounds)

    for name in ("ucp-sim", "pac-sim"):
        p = sub.add_parser(name, help=f"{name.split('-')[0].upper()} event "
                                      "probability (Monte Carlo or exact)")
        p.add_argument("--space", required=True)
        p.add_argument("--dist", required=True, help="distribution JSON file")
        p.add_argument("--m", required=True,
                       help="sample size, or comma list for a sweep")
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--exact", action="store_true")
        if name == "pac-sim":
            p.add_argument("--learner", required=True,
                           help="builtin:NAME, file:PATH, or random:SEED")
        add_out(p)
        p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("nfl", help="adversarial lower-bound enumeration")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--learner", default="builtin:sem")
    p.add_argument("--space", default="full",
                   help="'full' or a space JSON file shattering the instances")
    p.add_argument("--instances", default=None,
                   help="2m instances, JSON file or inline 'x1;x2;...'; "
                        "default 0..2m-1" + _MINUS_HELP.format("instances"))
    p.add_argument("--allow-large", action="store_true",
                   help="permit m = 5 and beyond (costly)")
    add_out(p)
    p.set_defaults(fn=_cmd_nfl)

    p = sub.add_parser("formula", help="parse/eval/space/shatter for the DSL")
    p.add_argument("action", choices=["parse", "eval", "space", "shatter"])
    text = p.add_mutually_exclusive_group()
    text.add_argument("--text", default=None)
    text.add_argument("--file", default=None)
    p.add_argument("--objects", required=True, help="comma-separated names")
    p.add_argument("--params", default="", help="comma-separated names")
    p.add_argument("--backend", choices=["exact", "float"], default=None)
    p.add_argument("--x", default=None, help="object values, comma-separated")
    p.add_argument("--w", default=None, help="parameter values")
    p.add_argument("--pool", default=None,
                   help="instances for the space oracle: " + _POOL_HELP)
    p.add_argument("--instances", default=None,
                   help="instances for the shattering check, JSON file or "
                        "inline 'x1;x2;...'"
                        + _MINUS_HELP.format("instances"))
    source = p.add_mutually_exclusive_group()
    source.add_argument("--params-list", dest="params_list", default=None,
                        help="explicit parameter tuples 'a,b;c,d'")
    source.add_argument("--grid", default=None,
                        help="per-parameter axes 'v1,v2;u1,u2'")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=_cmd_formula)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call, not at
    import; parsing keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    inputs = Inputs()
    started = time.monotonic()
    try:
        result, sweep = args.fn(args, inputs)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, InexactOracleError, ValueError, OSError,
            fm.FormulaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duration = time.monotonic() - started

    config = {k: v for k, v in vars(args).items()
              if k not in ("fn", "out") and not callable(v)}
    manifest = {
        "subcommand": args.command,
        "config": json_ready(config),
        "inputs": inputs,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "duration_s": round(duration, 6),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    result = json_ready(result)
    payload = {"manifest": manifest, "result": result}
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if sweep is not None:
        sweep_path = out_dir / "sweep.csv"
        with sweep_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(sweep)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"report written to {report_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
