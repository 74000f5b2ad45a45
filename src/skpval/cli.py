"""skpval command line: parse a JSON problem file, dispatch, emit a report.

Exit codes: 0 success, 1 domain failure or internal fault, 2 malformed input.
Reports are byte-deterministic for identical inputs and tool version.
"""

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .classify import abhyankar_check, classify_table1, inductive_invariants
from .errors import SchemaError, SkpvalError
from .expansion import adic_expand
from . import jsonio
from .realize import CORRECTED, realize, verify_realization
from .skp import minimal_pseudo_skp
from .valuation import (
    SkpValuation,
    delta_of,
    graded_normal_form,
    initial_form,
    value_of,
)
from .valtable import validate_table


def _read_problem(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), "sha256:" + hashlib.sha256(raw).hexdigest()
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an int longer than int() reads; its own message runs long
        raise SchemaError(f"{path} is not valid JSON: an integer longer than int() reads") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply to read") from exc


def _load_valuation(path, args):
    """The valuation of the file at ``path``, --poly and the input digest;
    flag faults (exit 2) come before a table the valuation refuses (exit 1)."""
    data, digest = _read_problem(path)
    skp = jsonio.build_from_problem(data)
    valuation = jsonio.load_valuation(args.alpha, skp)
    return valuation, jsonio.load_poly(args.poly, skp), digest


def cmd_validate(args):
    data, digest = _read_problem(args.file)
    _, table = jsonio.read_skp(data)
    report = validate_table(table)
    status = 0 if report.is_sequence_of_values else 1
    return status, digest, {"validation": report.to_json()}


def cmd_build(args):
    data, digest = _read_problem(args.file)
    skp = jsonio.build_from_problem(data)
    result = {"skp": jsonio.dump_skp(skp)}
    if args.minimal:
        result["minimal_pseudo"] = jsonio.dump_skp(minimal_pseudo_skp(skp))
    return 0, digest, result


def cmd_expand(args):
    valuation, f, digest = _load_valuation(args.file, args)
    return 0, digest, {"expansion": adic_expand(f, valuation).to_json()}


def cmd_eval(args):
    valuation, f, digest = _load_valuation(args.skp, args)
    value = value_of(f, valuation)
    return 0, digest, {"value": value.to_json(), "value_str": str(value)}


def cmd_initial(args):
    valuation, f, digest = _load_valuation(args.skp, args)
    form = initial_form(f, valuation)
    return 0, digest, {"initial_form": form.to_json()}


def cmd_delta(args):
    data, digest = _read_problem(args.skp)
    skp = jsonio.build_from_problem(data)
    f = jsonio.load_poly(args.poly, skp)
    length = skp.row_length(skp.nvars - 1)
    if not 1 <= args.j <= length:
        raise SchemaError(f"--j {args.j} outside the top row 1..{length}")
    valuation = SkpValuation(skp, skp.row_lengths()[:-1] + (args.j,))
    return 0, digest, {"delta": delta_of(f, valuation)}


def cmd_normal_form(args):
    valuation, f, digest = _load_valuation(args.skp, args)
    nf = graded_normal_form(f, valuation)
    return 0, digest, {"normal_form": nf.to_json(valuation.skp.field)}


def cmd_classify(args):
    data, digest = _read_problem(args.file)
    if isinstance(data, dict) and "arithmetic" in data:
        arith = jsonio.walk(jsonio.CLASSIFY, data)["arithmetic"]
        report = classify_table1(arith)
        payload = report.to_json()
        payload["abhyankar"] = (
            abhyankar_check(report, 3) if report.status != "UNCLASSIFIED" else None
        )
        return 0, digest, {"classification": payload}
    skp = jsonio.build_from_problem(data)
    report = inductive_invariants(skp, jsonio.SKP.entry(data, "declared_infinite_rows") or ())
    payload = report.to_json()
    payload["abhyankar"] = abhyankar_check(report, skp.nvars)
    return 0, digest, {"invariants": payload}


def cmd_realize(args):
    bounds = {key: getattr(args, key) for key in ("coeff_bound", "degree_bound", "samples")}
    for key, value in bounds.items():
        if (value or 0) < 0:
            raise SchemaError(f"--{key.replace('_', '-')}: an integer >= 0")
    data, digest = _read_problem(args.file)
    spec = jsonio.load_semigroup_spec(data)
    mode = args.mode or jsonio.REALIZE.entry(data, "mode") or CORRECTED
    thetas = jsonio.REALIZE.entry(data, "thetas") or {}
    result = realize(spec, mode, thetas)
    table = result.valuation.skp
    jsonio.require_indices(thetas, table.entries, "a theta")
    payload = {
        "mode": mode, "blocks": result.blocks.to_json(), "analysis": result.analysis.to_json(),
        "table": jsonio.dump_table(table), "report": result.report,
    }
    if args.verify:
        valuation, blocks = result.valuation, result.blocks
        verdict = verify_realization(valuation, spec, blocks, seed=args.seed, **bounds)
        payload["verification"] = verdict.to_json()
    return 0, digest, {"realization": payload}


def _add_poly_commands(sub):
    for name, fn, extra in (
        ("eval", cmd_eval, ()),
        ("initial", cmd_initial, ()),
        ("delta", cmd_delta, ("j",)),
        ("normal-form", cmd_normal_form, ()),
    ):
        p = sub.add_parser(name, help=f"{name} of a polynomial under the table valuation")
        p.add_argument("--skp", required=True, help="skp problem file")
        p.add_argument("--poly", required=True, help="polynomial text, e.g. \"X1^2-X0^3\"")
        if "j" in extra:
            p.add_argument("--j", type=int, required=True, help="top-row cutoff")
        else:
            p.add_argument("--alpha", help="acceptable vector, e.g. \"1,3\"")
        p.set_defaults(func=fn)


@functools.cache
def make_parser():
    parser = argparse.ArgumentParser(
        prog="skpval",
        description="Key-polynomial valuations, expansions, classification, "
        "and semigroup realization with exact arithmetic.",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized sweeps (printed)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a value table")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build the key polynomials")
    p.add_argument("file")
    p.add_argument("--minimal", action="store_true", help="also emit the minimal pseudo table")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("expand", help="adic expansion of a polynomial")
    p.add_argument("file")
    p.add_argument("--poly", required=True)
    p.add_argument("--alpha")
    p.set_defaults(func=cmd_expand)

    _add_poly_commands(sub)

    p = sub.add_parser("classify", help="numerical invariants / lookup table")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    for name in ("realize", "verify"):
        p = sub.add_parser(name, help=f"{name} a semigroup from its generators")
        p.add_argument("file")
        p.add_argument("--mode", choices=("literal", "corrected"))
        if name == "realize":
            p.add_argument("--verify", action="store_true")
        p.add_argument("--coeff-bound", type=int, dest="coeff_bound")
        p.add_argument("--degree-bound", type=int, dest="degree_bound")
        p.add_argument("--samples", type=int)
        p.set_defaults(func=cmd_realize, verify=name == "verify")
    return parser


def run_command(argv):
    parser = make_parser()
    args = parser.parse_args(argv)
    report = {
        "tool": "skpval",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "diagnostics": [],
    }
    try:
        code, digest, result = args.func(args)
        report["input_digest"] = digest
        report["result"] = result
        report["status"] = "ok" if code == 0 else "invalid"
    except SchemaError as exc:
        report["status"] = "error"
        report["diagnostics"].append({"kind": "schema", "message": str(exc)})
        code = 2
    except SkpvalError as exc:
        report["status"] = "invalid"
        kind = type(exc).__name__.removesuffix("Error")
        diagnostic = {"kind": kind, "message": str(exc)}
        if getattr(exc, "report", None) is not None:
            diagnostic["validation"] = exc.report.to_json()
        report["diagnostics"].append(diagnostic)
        code = 1
    except Exception as exc:  # never crash: surface as a diagnostic
        report["status"] = "error"
        report["diagnostics"].append(
            {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}
        )
        code = 1
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # a flag fault: the report goes to stdout
            report = {key: report[key] for key in ("tool", "version", "command", "seed")}
            message = f"cannot write --out {args.out}: {exc}"
            report.update(status="error", diagnostics=[{"kind": "schema", "message": message}])
            text, code = json.dumps(report, sort_keys=True, indent=2) + "\n", 2
    sys.stdout.write(text)
    return code


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
