"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 computation error,
3 verification failure.  Output is deterministic for a given input;
``--json`` replaces the human rendering with the JSON payload.

Notation on the command line: partitions and multipartitions are JSON
arrays (``[2,1]``, ``[[2],[1,1],[1,1]]``); compositions are
parenthesized comma lists that keep zero parts visible, e.g.
``(3,1,0,2,3)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from . import branching, perms, shapes
from .lr import lr_coefficient, lr_multi

USAGE_ERROR, COMPUTATION_ERROR, VERIFICATION_FAILURE = 1, 2, 3

# the names of verify.SUITES, kept here so that only the verify command
# imports the oracles
VERIFY_SUITES = ("cosets", "dimensions-first", "dimensions-second",
                 "labelling-equivalence", "length-lemma", "lr-oracle",
                 "stabilizers")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_partition(text: str) -> shapes.Partition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad partition syntax {text!r}: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise ValueError(f"bad partition {text!r}")
    return shapes.check_partition(tuple(data))


def parse_multipartition(text: str) -> shapes.Multipartition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad multipartition syntax {text!r}: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise ValueError(f"bad multipartition {text!r}")
    return tuple(shapes.check_partition(tuple(c)) for c in data)


def parse_composition(text: str) -> shapes.Composition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"compositions are written (a,b,...): {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return shapes.check_composition(int(v) for v in inner.split(","))


def _ordered(mults, n: int) -> list:
    """The keys of `mults`, descending by (concatenated parts of nu, nu).

    `n` bounds every part.  Below 256 the bytes of the concatenated parts
    compare exactly like their tuple, and are cheaper to build and compare.
    """
    key = bytes if n < 256 else tuple
    return [nu for _, nu in sorted(zip(map(key, map(chain.from_iterable,
                                                    mults)), mults),
                                   reverse=True)]


def _mult_text(m: int, rule: str, lam, mults, as_json: bool) -> str:
    """The stdout of a branching answer, equal to the generic rendering.

    The generic rendering would be ``json.dumps(payload, sort_keys=True)``
    of {"lambda", "m", "multiplicities": [{"mult", "nu"}], "n", "rule"},
    or a header line with one ``nu=... mult=...`` line per entry, both in
    `_ordered` order.  Both are spliced here from one JSON string per
    distinct partition, as answers run to thousands of entries.
    """
    n = sum(map(sum, lam))
    part_text = {p: json.dumps(p)
                 for p in set(chain.from_iterable(mults))}.__getitem__
    ordered = _ordered(mults, n)
    if as_json:
        entries = ", ".join(['{"mult": %d, "nu": [%s]}'
                             % (mults[nu], ", ".join(map(part_text, nu)))
                             for nu in ordered])
        return ('{"lambda": %s, "m": %d, "multiplicities": [%s], "n": %d, '
                '"rule": "%s"}' % (json.dumps(lam), m, entries, n, rule))
    lines = [f"rule={rule} m={m} n={n} lambda={json.dumps(lam)}"]
    lines += ["  nu=[%s] mult=%d" % (", ".join(map(part_text, nu)), mults[nu])
              for nu in ordered]
    return "\n".join(lines)


def _branch_first(args) -> tuple[str, int]:
    lam = parse_multipartition(args.lam)
    method = "matrices" if args.method == "both" else args.method
    mults = branching.branch_first(args.m, lam, method=method)
    if args.method == "both":
        labs = branching.branch_first(args.m, lam, method="labellings")
        if mults != labs:
            if not args.as_json:
                return "methods disagree", VERIFICATION_FAILURE
            return ('{"code": "method-disagreement", "labellings": %s, '
                    '"matrices": %s, "status": "error"}'
                    % (_mult_text(args.m, "first", lam, labs, True),
                       _mult_text(args.m, "first", lam, mults, True)),
                    VERIFICATION_FAILURE)
    return _mult_text(args.m, "first", lam, mults, args.as_json), 0


def _branch_second(args) -> tuple[str, int]:
    lam = parse_multipartition(args.lam)
    mults = branching.branch_second(args.m, lam)
    return _mult_text(args.m, "second", lam, mults, args.as_json), 0


def _dim(args) -> tuple[dict, int]:
    lam = parse_partition(args.partition)
    return {"partition": lam, "dim": shapes.specht_dimension(lam)}, 0


def _lr(args) -> tuple[dict, int]:
    lam = parse_partition(args.lam)
    alpha = parse_partition(args.alpha)
    beta = parse_partition(args.beta)
    return {"lambda": lam, "alpha": alpha, "beta": beta,
            "coefficient": lr_coefficient(lam, alpha, beta)}, 0


def _lr_multi(args) -> tuple[dict, int]:
    lam = parse_partition(args.lam)
    parts = tuple(parse_partition(p) for p in args.parts.split(";"))
    return {"lambda": lam, "parts": parts,
            "coefficient": lr_multi(lam, parts)}, 0


def _young_layer(args) -> tuple[dict, int]:
    layer = branching.young_layer(args.m)
    return {"m": layer.m, "upper": layer.upper, "lower": layer.lower,
            "edges": [{"upper": i + 1, "lower": j + 1}
                      for i, j in layer.edges],
            "adjacency": layer.adjacency}, 0


def _labellings(args) -> tuple[dict, int]:
    layer = branching.young_layer(args.m)
    lam = parse_multipartition(args.lam)
    nu = parse_multipartition(args.nu)
    entries = [{"labels": [{"upper": i + 1, "lower": j + 1, "label": lbl}
                           for (i, j), lbl in zip(layer.edges, labels)],
                "coefficient": coeff}
               for labels, coeff in branching.good_labellings(args.m, lam, nu)]
    return {"m": args.m, "lambda": lam, "nu": nu, "labellings": entries,
            "total": sum(e["coefficient"] for e in entries)}, 0


def _labellings_human(payload) -> str:
    lines = [f"{len(payload['labellings'])} good labellings, "
             f"coefficient sum {payload['total']}"]
    for e in payload["labellings"]:
        lbls = " ".join(f"({x['upper']},{x['lower']}):{json.dumps(x['label'])}"
                        for x in e["labels"])
        lines.append(f"  M(L)={e['coefficient']}  {lbls}")
    return "\n".join(lines)


def _wreath_dim(args) -> tuple[dict, int]:
    lam = parse_multipartition(args.lam)
    return {"m": args.m, "lambda": lam,
            "dim": branching.wreath_specht_dimension(args.m, lam)}, 0


def _cosets(args) -> tuple[dict, int]:
    gamma = parse_composition(args.gamma)
    alpha = parse_composition(args.alpha)
    reps = [perms.to_cycles(p) for p in perms.double_coset_reps(gamma, alpha)]
    return {"gamma": gamma, "alpha": alpha, "count": len(reps),
            "reps": reps}, 0


def _rho(args) -> tuple[dict, int]:
    sizes = parse_composition(args.sizes)
    return {"sizes": sizes,
            "reps": [{"index": i, "cycles": perms.to_cycles(p)}
                     for i, p in perms.rho_cosets(sizes)]}, 0


def _verify(args) -> tuple[dict, int]:
    from . import verify
    report = verify.run_suite(args.suite, args.max_m, args.max_n)
    return report, VERIFICATION_FAILURE if report["failures"] else 0


def _verify_human(report) -> str:
    lines = [f"suite {report['suite']}: {report['checked']} instances "
             f"checked, {len(report['failures'])} failures"]
    lines += [f"  FAIL {f}" for f in report["failures"]]
    return "\n".join(lines)


_REQUIRED = {"required": True}
_M = ("-m", {"type": int, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})

# name -> (help, arguments as (name, add_argument keywords) after --json,
# the payload and exit code of the parsed arguments, the human rendering
# of the payload)
COMMANDS = {
    "partitions": (
        "list the partitions of m", [("m", {"type": int})],
        lambda a: ({"m": a.m,
                    "partitions": shapes.enumerate_partitions(a.m)}, 0),
        lambda p: json.dumps(p["partitions"], separators=(",", ":"))),
    "dim": ("Specht module dimension by hook lengths",
            [("--partition", _REQUIRED)], _dim, lambda p: str(p["dim"])),
    "lr": ("Littlewood-Richardson coefficient",
           [_LAMBDA, ("--alpha", _REQUIRED), ("--beta", _REQUIRED)], _lr,
           lambda p: str(p["coefficient"])),
    "lr-multi": (
        "generalized LR coefficient",
        [_LAMBDA, ("--parts", {"required": True, "help": (
            "semicolon-separated partitions, e.g. [2];[1,1]")})],
        _lr_multi, lambda p: str(p["coefficient"])),
    "young-layer": (
        "two adjacent layers of the Young graph", [("m", {"type": int})],
        _young_layer, lambda p: (f"upper: {json.dumps(p['upper'])}\n"
                                 f"lower: {json.dumps(p['lower'])}\n"
                                 f"edges: {len(p['edges'])}")),
    "labellings": ("good labellings with their coefficients",
                   [_M, _LAMBDA, ("--nu", _REQUIRED)], _labellings,
                   _labellings_human),
    "branch-first": (
        "restriction to the smaller inner group",
        [_M, _LAMBDA, ("--method", {"default": "matrices", "choices":
                                    ["labellings", "matrices", "both"]})],
        _branch_first, None),
    "branch-second": ("restriction to the smaller outer group",
                      [_M, _LAMBDA], _branch_second, None),
    "wreath-dim": ("dimension of a wreath product Specht module",
                   [_M, _LAMBDA], _wreath_dim, lambda p: str(p["dim"])),
    "cosets": ("double coset representatives from tableaux",
               [("--gamma", _REQUIRED), ("--alpha", _REQUIRED)], _cosets,
               lambda p: "\n".join(p["reps"])),
    "rho": ("cyclic coset representatives for given sizes",
            [("--sizes", _REQUIRED)], _rho,
            lambda p: "\n".join(f"rho_{e['index']} = {e['cycles']}"
                                for e in p["reps"])),
    "verify": ("run an exhaustive verification suite",
               [("--suite", {"required": True, "choices": VERIFY_SUITES}),
                ("--max-m", {"type": int}), ("--max-n", {"type": int})],
               _verify, _verify_human),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathbranch")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the JSON payload only")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _run(args) -> tuple[str, int]:
    """The stdout of one command, and its exit code."""
    _, _, compute, human = COMMANDS[args.command]
    payload, code = compute(args)
    if human is None:  # branch-*: _mult_text has rendered the stdout
        return payload, code
    if args.as_json:
        # payloads are fresh dicts and tuples, so there is no cycle to find
        return json.dumps(payload, sort_keys=True, check_circular=False), code
    return human(payload), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        text, code = _run(args)
    except (ValueError, RecursionError) as exc:
        err = {"status": "error", "code": "computation-error",
               "message": str(exc)}
        print(json.dumps(err, sort_keys=True))
        return COMPUTATION_ERROR
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
