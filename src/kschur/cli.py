"""Batch command line interface.

Subcommands: cores, strips, abc, kf-table, expand, pieri, verify.
Output is JSON (--json) or aligned text, byte-deterministic for fixed
inputs; each command builds only the format it prints.  Exit codes: 0
success, 1 usage error (including a verification sweep with no
instances), 2 conjecture mismatch.  Every usage error prints an
`error:` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .abctab import count_affine_factorizations, enumerate_abc
from .cores import (
    NCore,
    _weak_pieri_terms,
    c_inverse,
    c_map,
    cores_of_degree,
    normalize,
    w_core,
)
from .schubert import (
    affine_monk_check,
    horizontal_pieri,
    rect_pieri_check,
    strong_pieri_cohomology,
    weak_pieri,
)
from .strips import (
    horizontal_strong_strips_from,
    phi,
    psi,
    ribbon_strong_strips,
    strong_strips,
)
from .symfun import (
    bounded_partitions_of,
    dual_kschur,
    h0t_in_m,
    kf_matrix,
    kn_matrix,
    kschur,
    partitions_of,
    ptilde_in_m,
)
from .tpoly import TPoly


class Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_composition(text: str) -> tuple:
    """Comma-separated integers in the order given, zeros dropped."""
    if text in ("", "-", "0"):
        return ()
    try:
        return tuple(p for p in map(int, text.split(",")) if p != 0)
    except ValueError:
        raise ValueError(f"not a list of integers: {text!r}") from None


def parse_partition(text: str) -> tuple:
    return normalize(parse_composition(text))


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _core_from_args(args) -> NCore:
    if getattr(args, "core", None) is not None:
        return NCore(args.n, parse_partition(args.core))
    if getattr(args, "bounded", None) is not None:
        return c_map(parse_partition(args.bounded), args.n)
    raise ValueError("one of --core/--bounded is required")


def core_json(core: NCore) -> dict:
    return {"n": core.n, "shape": list(core.parts)}


def tpoly_json(p: TPoly, at_t=None):
    if at_t is not None:
        return p(at_t)
    if p.is_polynomial():
        return p.coeff_list()
    # deformed P-function coefficients live in ZZ[t, 1/t]
    val = p.valuation()
    return {"valuation": val, "coeffs": [p.coeff(e) for e in range(val, p.degree() + 1)]}


def _emit(args, payload, text_lines):
    """Print payload() as JSON with --json, else each line of text_lines(); the other is never built."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in text_lines():
            print(line)


# -- subcommands -----------------------------------------------------------


def cmd_cores(args) -> int:
    max_deg = 6 if args.max_deg is None else args.max_deg
    degs = [args.deg] if args.deg is not None else list(range(max_deg + 1))
    rows = [(d, core, list(c_inverse(core))) for d in degs for core in cores_of_degree(args.n, d)]
    _emit(
        args,
        lambda: [
            {"degree": d, "core": core_json(core), "bounded": bounded,
             "word": list(w_core(core).window)}
            for d, core, bounded in rows
        ],
        lambda: (f"deg {d}: core {list(core.parts)} bounded {bounded}" for d, core, bounded in rows),
    )
    return 0


def _strip_json(chain, contents=None):
    out = {"chain": [list(c.parts) for c in chain]}
    if contents is not None:
        out["contents"] = list(contents)
    return out


#: the options each strip kind reads, besides --n and the core
_STRIP_OPTIONS = {"horizontal": ("m",), "strong": ("m", "to"), "ribbon": ("r", "b")}


def cmd_strips(args) -> int:
    for opt in ("m", "to", "r", "b"):
        if getattr(args, opt) is not None and opt not in _STRIP_OPTIONS[args.kind]:
            raise ValueError(f"--kind {args.kind} does not read --{opt}")
    m = 1 if args.m is None else args.m
    lam = _core_from_args(args)
    if args.kind == "horizontal":
        if m > args.n - 1:
            raise ValueError(f"--m must be at most n-1 = {args.n - 1}, got {m}")
        strips = [(s, list(psi(s))) for s in horizontal_strong_strips_from(lam, m)]
        payload = lambda: [
            {"nu": core_json(s.nu), **_strip_json(s.chain, s.contents), "word": word}
            for s, word in strips
        ]
        lines = lambda: (
            f"nu {list(s.nu.parts)} contents {list(s.contents)} word {word}" for s, word in strips
        )
    elif args.kind == "strong":
        if args.to is None:
            raise ValueError("--to is required for strong strips")
        gamma = NCore(args.n, parse_partition(args.to))
        gap = gamma.degree() - lam.degree()
        if m != gap:
            raise ValueError(f"--m is {m}, but deg(--to) - deg(core) = {gap}")
        strips = strong_strips(lam, gamma, m)
        payload = lambda: [_strip_json(s.chain, s.contents) for s in strips]
        lines = lambda: (
            f"chain {[list(c.parts) for c in s.chain]} contents {list(s.contents)}" for s in strips
        )
    else:
        if args.r is None or args.b is None:
            raise ValueError("--r and --b are required for ribbon strips")
        strips = ribbon_strong_strips(lam, args.r, args.b)
        payload = lambda: [{"nu": core_json(s.nu), **_strip_json(s.chain)} for s in strips]
        lines = lambda: (
            f"nu {list(s.nu.parts)} chain {[list(c.parts) for c in s.chain]}" for s in strips
        )
    _emit(args, payload, lines)
    return 0


def cmd_abc(args) -> int:
    shape = _core_from_args(args)
    d = shape.degree()
    if args.weight is None:
        weights = bounded_partitions_of(d, args.n)
    else:
        weights = [parse_composition(args.weight)]
        if sum(weights[0]) != d:
            raise ValueError(f"--weight sums to {sum(weights[0])}, but the core has degree {d}")
    # each ABC with its n-cocharge, or None off the partition weights, which have none
    abcs = [
        (abc, abc.n_cocharge() if list(weight) == sorted(weight, reverse=True) else None)
        for weight in weights for abc in enumerate_abc(shape, weight)
    ]
    payload = lambda: [
        {"n": abc.n, "lambda_chain": [list(c.parts) for c in abc.chain],
         "weight": list(abc.weight), **({} if cc is None else {"cocharge": cc})}
        for abc, cc in abcs
    ]
    lines = lambda: (line for abc, cc in abcs for line in (
        abc.pretty(), f"weight {list(abc.weight)}" + ("" if cc is None else f" cocharge {cc}"), ""
    ))
    _emit(args, payload, lines)
    return 0


def cmd_kf_table(args) -> int:
    if args.weak:
        parts, matrix = bounded_partitions_of(args.deg, args.n), kn_matrix(args.n, args.deg)
    else:
        parts, matrix = partitions_of(args.deg), kf_matrix(args.deg)
    cell = repr if args.at_t is None else lambda p: str(p(args.at_t))
    _emit(
        args,
        lambda: {
            "n": args.n if args.weak else None,
            "degree": args.deg,
            "rows": [
                {"lambda": list(lam), "entries": [
                    {"mu": list(mu), "coeff": tpoly_json(p, args.at_t)}
                    for mu, p in zip(parts, entries)
                ]}
                for lam, entries in zip(parts, matrix)
            ],
        },
        lambda: (
            f"{str(list(lam)):<18} " + " | ".join(map(cell, entries))
            for lam, entries in zip(parts, matrix)
        ),
    )
    return 0


def cmd_expand(args) -> int:
    t_on = args.at_t != 1
    if args.basis in ("dualk", "k"):
        core = _core_from_args(args)
        f = dual_kschur(core, t_on) if args.basis == "dualk" else kschur(core, t_on)
    elif args.bounded is None:
        raise ValueError(f"--bounded is required for --basis {args.basis}")
    else:
        bounded = parse_partition(args.bounded)
        f = ptilde_in_m(bounded) if args.basis == "ptilde" else h0t_in_m(bounded)
    if args.at_t is not None:
        f = f.map_coeffs(lambda c: TPoly.const(c(args.at_t)))
    terms = sorted(f.terms.items(), reverse=True)
    _emit(
        args,
        lambda: {
            "basis": f.basis,
            "n": getattr(args, "n", None),
            "terms": [{"partition": list(p), "coeff": tpoly_json(c, None)} for p, c in terms],
        },
        lambda: (f"{str(list(p)):<18} {c!r}" for p, c in terms),
    )
    return 0


def cmd_pieri(args) -> int:
    lam = _core_from_args(args)
    wk = weak_pieri(args.m, lam)
    hz = horizontal_pieri(args.m, lam)
    st = strong_pieri_cohomology(args.m, lam)
    agree = wk == hz
    payload = {
        "weak": sorted([list(c.parts) for c in wk], reverse=True),
        "horizontal": sorted([list(c.parts) for c in hz], reverse=True),
        "strong_cohomology": sorted(
            [[list(c.parts), mult] for c, mult in st.items()], reverse=True
        ),
        "weak_horizontal_agree": agree,
    }
    lines = lambda: [
        "weak:       " + str(payload["weak"]),
        "horizontal: " + str(payload["horizontal"]),
        "strong^:    " + str(payload["strong_cohomology"]),
        "agreement:  " + str(agree),
    ]
    _emit(args, lambda: payload, lines)
    return 0 if agree else 2


# -- verify sweeps -----------------------------------------------------------


def _cores_up_to(n: int, max_deg: int):
    return [lam for d in range(max_deg + 1) for lam in cores_of_degree(n, d)]


def _bounded_up_to(n: int, max_size: int):
    return [lam for size in range(max_size + 1) for lam in bounded_partitions_of(size, n)]


def _compositions(total: int, n: int):
    """The compositions of total with parts below n."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, n - 1) + 1):
        for rest in _compositions(total - first, n):
            yield (first,) + rest


def _prop_main_check(lam):
    """Prop. main at lam: hss = weak Pieri terms and phi inverts psi, for every m."""
    n = lam.n
    for m in range(0, n):
        strips = horizontal_strong_strips_from(lam, m)
        hss = {s.nu.parts for s in strips}
        weak = {nu.parts for nu in _weak_pieri_terms(n - 1 - m, lam)}
        if hss != weak:
            return False, ("mismatch", lam.parts, m, sorted(hss), sorted(weak))
        for s in strips:
            if phi(psi(s), lam) != s:
                return False, ("roundtrip", lam.parts, m, list(psi(s)))
    return True, None


def _theta_check(lam):
    """Theta at lam: as many ABCs of each weight as factorizations of w_core."""
    w = w_core(lam)
    bad = []
    for alpha in _compositions(lam.degree(), lam.n):
        na = len(enumerate_abc(lam, alpha))
        nf = count_affine_factorizations(w, alpha)
        if na != nf:
            bad.append((lam.parts, list(alpha), na, nf))
    return not bad, bad


def _verdict(report):
    return report["match"], report


def _monk_cases(n: int, max_size: int):
    return [(r, lam, n) for lam in _bounded_up_to(n, max_size) for r in range(1, n)]


def _rect_pieri_cases(n: int, max_size: int):
    lams = _bounded_up_to(n, max_size)
    return [(r, b, lam, n) for lam in lams for r in range(2, n) for b in range(1, r)]


#: sweep -> (the bound it reads, instances(n, bound), check(instance) -> (match, failure),
#: None or the extra report fields read off all the results); lambdas find checkers per call
SWEEPS = {
    "affine-monk": ("max_size", _monk_cases, lambda i: _verdict(affine_monk_check(*i)), None),
    "rect-pieri": (
        "max_size", _rect_pieri_cases, lambda i: _verdict(rect_pieri_check(*i)),
        lambda results: {"reading_disagreements": sum(not r["readings_agree"] for _, r in results)},
    ),
    "prop-main": ("max_deg", _cores_up_to, _prop_main_check, None),
    "theta-bijection": ("max_deg", _cores_up_to, _theta_check, None),
}


def cmd_verify(args) -> int:
    """Run one sweep; a sweep that checks nothing is a usage error."""
    bound, instances, check, extra = SWEEPS[args.sweep]
    for opt in ("max_deg", "max_size"):
        if opt != bound and getattr(args, opt) is not None:
            raise ValueError(f"the {args.sweep} sweep does not read --{opt.replace('_', '-')}")
    limit = 6 if getattr(args, bound) is None else getattr(args, bound)
    instance = {"n": args.n, bound: limit}
    cases = instances(args.n, limit)
    if not cases:
        raise ValueError(f"the {args.sweep} sweep has no instances at {instance}")
    results = [check(case) for case in cases]
    failures = [failure for match, failure in results if not match]
    report = {"conjecture": args.sweep, "instance": instance, "match": not failures,
              "instances": len(cases), "lhs": [], "rhs": [], "failures": failures,
              **(extra(results) if extra else {})}
    print(json.dumps(report, sort_keys=True))
    return 0 if not failures else 2


# -- parser ------------------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="kschur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count, modulus = _int_at_least(0), _int_at_least(2)

    def common(p):
        p.add_argument("--n", type=modulus, required=True)
        p.add_argument("--json", action="store_true")

    def core_or_bounded(p):
        shape = p.add_mutually_exclusive_group()
        shape.add_argument("--core", default=None)
        shape.add_argument("--bounded", default=None)

    p = sub.add_parser("cores", help="list n-cores by degree")
    common(p)
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--deg", type=count, default=None)
    degree.add_argument("--max-deg", type=count, default=None, help="default 6")
    p.set_defaults(func=cmd_cores)

    p = sub.add_parser("strips", help="enumerate strips")
    common(p)
    core_or_bounded(p)
    p.add_argument("--kind", choices=("horizontal", "strong", "ribbon"), default="horizontal")
    p.add_argument("--m", type=count, default=None, help="horizontal, strong; default 1")
    p.add_argument("--to", default=None, help="target core for strong strips")
    p.add_argument("--r", type=int, default=None, help="ribbon")
    p.add_argument("--b", type=int, default=None, help="ribbon")
    p.set_defaults(func=cmd_strips)

    p = sub.add_parser("abc", help="enumerate affine Bruhat countertableaux")
    common(p)
    core_or_bounded(p)
    p.add_argument("--weight", default=None, help="composition; default all partition weights")
    p.set_defaults(func=cmd_abc)

    p = sub.add_parser("kf-table", help="Kostka-Foulkes tables")
    common(p)
    p.add_argument("--deg", type=count, required=True)
    p.add_argument("--weak", action="store_true")
    p.add_argument("--at-t", type=int, default=None)
    p.set_defaults(func=cmd_kf_table)

    p = sub.add_parser("expand", help="basis expansions in m")
    common(p)
    p.add_argument("--basis", choices=("dualk", "k", "ptilde", "h0t"), required=True)
    core_or_bounded(p)
    specialize = p.add_mutually_exclusive_group()
    specialize.add_argument("--t1", dest="at_t", action="store_const", const=1, help="same as --at-t 1")
    specialize.add_argument("--at-t", type=int, default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("pieri", help="the three Pieri rules with agreement diff")
    common(p)
    core_or_bounded(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("verify", help="conjecture verification sweeps")
    p.add_argument("sweep", choices=tuple(SWEEPS))
    p.add_argument("--n", type=modulus, default=4)
    p.add_argument("--max-deg", type=count, default=None, help="prop-main, theta-bijection; default 6")
    p.add_argument("--max-size", type=count, default=None, help="affine-monk, rect-pieri; default 6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> Parser:
    """The one parser of the process, built on the first call to main."""
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader is gone: devnull takes the rest, so exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
