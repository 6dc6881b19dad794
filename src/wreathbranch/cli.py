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


def _mult_text(m: int, n: int, rule: str, lam, mults, as_json: bool) -> str:
    """The stdout of a branching answer, equal to the generic rendering.

    The generic rendering would be ``json.dumps(payload, sort_keys=True)``
    of {"lambda", "m", "multiplicities": [{"mult", "nu"}], "n", "rule"},
    or a header line with one ``nu=... mult=...`` line per entry, both in
    `_ordered` order.  Both are spliced here from one JSON string per
    distinct partition, as answers run to thousands of entries.
    """
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


def _branch(args) -> tuple[str, int]:
    """The stdout of branch-first or branch-second, and its exit code."""
    lam = parse_multipartition(args.lam)
    n = sum(map(sum, lam))
    if args.command == "branch-second":
        mults = branching.branch_second(args.m, lam)
        return _mult_text(args.m, n, "second", lam, mults, args.as_json), 0
    if args.method == "both":
        mats = branching.branch_first(args.m, lam, method="matrices")
        labs = branching.branch_first(args.m, lam, method="labellings")
        if mats != labs:
            if not args.as_json:
                return "methods disagree", VERIFICATION_FAILURE
            return ('{"code": "method-disagreement", "labellings": %s, '
                    '"matrices": %s, "status": "error"}'
                    % (_mult_text(args.m, n, "first", lam, labs, True),
                       _mult_text(args.m, n, "first", lam, mats, True)),
                    VERIFICATION_FAILURE)
        mults = mats
    else:
        mults = branching.branch_first(args.m, lam, method=args.method)
    return _mult_text(args.m, n, "first", lam, mults, args.as_json), 0


def _labellings_human(payload) -> str:
    lines = [f"{len(payload['labellings'])} good labellings, "
             f"coefficient sum {payload['total']}"]
    for e in payload["labellings"]:
        lbls = " ".join(f"({x['upper']},{x['lower']}):{json.dumps(x['label'])}"
                        for x in e["labels"])
        lines.append(f"  M(L)={e['coefficient']}  {lbls}")
    return "\n".join(lines)


def _verify_human(report) -> str:
    lines = [f"suite {report['suite']}: {report['checked']} instances "
             f"checked, {len(report['failures'])} failures"]
    lines += [f"  FAIL {f}" for f in report["failures"]]
    return "\n".join(lines)


# command -> the human rendering of its payload, used without --json
_HUMAN = {
    "partitions": lambda p: json.dumps(p["partitions"], separators=(",", ":")),
    "dim": lambda p: str(p["dim"]),
    "lr": lambda p: str(p["coefficient"]),
    "lr-multi": lambda p: str(p["coefficient"]),
    "young-layer": lambda p: (f"upper: {json.dumps(p['upper'])}\n"
                              f"lower: {json.dumps(p['lower'])}\n"
                              f"edges: {len(p['edges'])}"),
    "labellings": _labellings_human,
    "wreath-dim": lambda p: str(p["dim"]),
    "cosets": lambda p: "\n".join(p["reps"]),
    "rho": lambda p: "\n".join(f"rho_{e['index']} = {e['cycles']}"
                               for e in p["reps"]),
    "verify": _verify_human,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathbranch")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the JSON payload only")
        return p

    p = add("partitions", help="list the partitions of m")
    p.add_argument("m", type=int)

    p = add("dim", help="Specht module dimension by hook lengths")
    p.add_argument("--partition", required=True)

    p = add("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = add("lr-multi", help="generalized LR coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--parts", required=True,
                   help="semicolon-separated partitions, e.g. [2];[1,1]")

    p = add("young-layer", help="two adjacent layers of the Young graph")
    p.add_argument("m", type=int)

    p = add("labellings", help="good labellings with their coefficients")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", required=True)

    p = add("branch-first", help="restriction to the smaller inner group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--method", choices=["labellings", "matrices", "both"],
                   default="matrices")

    p = add("branch-second", help="restriction to the smaller outer group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)

    p = add("wreath-dim", help="dimension of a wreath product Specht module")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)

    p = add("cosets", help="double coset representatives from tableaux")
    p.add_argument("--gamma", required=True)
    p.add_argument("--alpha", required=True)

    p = add("rho", help="cyclic coset representatives for given sizes")
    p.add_argument("--sizes", required=True)

    p = add("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)

    return parser


def _run(args) -> tuple[str, int]:
    """The stdout of one command, and its exit code."""
    if args.command in ("branch-first", "branch-second"):
        return _branch(args)
    payload, code = _payload(args)
    if args.as_json:
        # payloads are fresh dicts and tuples, so there is no cycle to find
        return json.dumps(payload, sort_keys=True, check_circular=False), code
    return _HUMAN[args.command](payload), code


def _payload(args) -> tuple[dict, int]:
    """The payload of a command other than branch-*, and its exit code."""
    cmd = args.command
    if cmd == "partitions":
        return {"m": args.m,
                "partitions": shapes.enumerate_partitions(args.m)}, 0

    if cmd == "dim":
        lam = parse_partition(args.partition)
        return {"partition": lam, "dim": shapes.specht_dimension(lam)}, 0

    if cmd == "lr":
        lam = parse_partition(args.lam)
        alpha = parse_partition(args.alpha)
        beta = parse_partition(args.beta)
        return {"lambda": lam, "alpha": alpha, "beta": beta,
                "coefficient": lr_coefficient(lam, alpha, beta)}, 0

    if cmd == "lr-multi":
        lam = parse_partition(args.lam)
        parts = tuple(parse_partition(p) for p in args.parts.split(";"))
        return {"lambda": lam, "parts": parts,
                "coefficient": lr_multi(lam, parts)}, 0

    if cmd == "young-layer":
        layer = branching.young_layer(args.m)
        return {"m": layer.m, "upper": layer.upper, "lower": layer.lower,
                "edges": [{"upper": i + 1, "lower": j + 1}
                          for i, j in layer.edges],
                "adjacency": layer.adjacency}, 0

    if cmd == "labellings":
        layer = branching.young_layer(args.m)
        lam = parse_multipartition(args.lam)
        nu = parse_multipartition(args.nu)
        entries = [{"labels": [{"upper": i + 1, "lower": j + 1, "label": lbl}
                               for (i, j), lbl in zip(layer.edges, labels)],
                    "coefficient": coeff}
                   for labels, coeff in branching.good_labellings(args.m, lam,
                                                                  nu)]
        return {"m": args.m, "lambda": lam, "nu": nu, "labellings": entries,
                "total": sum(e["coefficient"] for e in entries)}, 0

    if cmd == "wreath-dim":
        lam = parse_multipartition(args.lam)
        return {"m": args.m, "lambda": lam,
                "dim": branching.wreath_specht_dimension(args.m, lam)}, 0

    if cmd == "cosets":
        gamma = parse_composition(args.gamma)
        alpha = parse_composition(args.alpha)
        reps = [perms.to_cycles(p)
                for p in perms.double_coset_reps(gamma, alpha)]
        return {"gamma": gamma, "alpha": alpha, "count": len(reps),
                "reps": reps}, 0

    if cmd == "rho":
        sizes = parse_composition(args.sizes)
        return {"sizes": sizes,
                "reps": [{"index": i, "cycles": perms.to_cycles(p)}
                         for i, p in perms.rho_cosets(sizes)]}, 0

    # argparse admits no other command, so only verify is left
    from . import verify
    report = verify.run_suite(args.suite, args.max_m, args.max_n)
    return report, VERIFICATION_FAILURE if report["failures"] else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        text, code = _run(args)
    except ValueError as exc:
        err = {"status": "error", "code": "computation-error",
               "message": str(exc)}
        print(json.dumps(err, sort_keys=True))
        return COMPUTATION_ERROR
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
