"""Batch command line interface.

Subcommands: cores, strips, abc, kf-table, expand, pieri, verify.
Options are read from one table, COMMANDS: `--opt value`, `--opt=value`
and any unique prefix of an option (`--max 3` in `cores`) are accepted,
the last of repeated options wins, and `-h` lists every command with its
options (`kschur <command> -h` one command).  Output is JSON (--json) or
aligned text, byte-deterministic for fixed inputs; each command builds
only the format it prints.  Exit codes: 0 success, 1 usage error
(including a verification sweep with no instances), 2 conjecture
mismatch.  Every usage error prints an `error:` line to stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import schubert
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
from .schubert import horizontal_pieri, strong_pieri_cohomology, weak_pieri
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


def _core_from_args(args) -> NCore:
    if args.core is not None:
        return NCore(args.n, parse_partition(args.core))
    if args.bounded is not None:
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
             "word": list(core.window)}
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
        if any(p >= args.n for p in bounded):
            raise ValueError(f"parts must be < {args.n}")
        f = ptilde_in_m(bounded) if args.basis == "ptilde" else h0t_in_m(bounded)
    if args.at_t is not None:
        f = f.map_coeffs(lambda c: c(args.at_t))
    terms = sorted(f.terms.items(), reverse=True)
    _emit(
        args,
        lambda: {
            "basis": f.basis,
            "n": args.n,
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
            return [(False, ("mismatch", lam.parts, m, sorted(hss), sorted(weak)))]
        for s in strips:
            if phi(psi(s), lam) != s:
                return [(False, ("roundtrip", lam.parts, m, list(psi(s))))]
    return [(True, None)]


def _theta_check(lam):
    """Theta at lam: as many ABCs of each weight as factorizations of w_core."""
    w = w_core(lam)
    bad = []
    for alpha in _compositions(lam.degree(), lam.n):
        na = len(enumerate_abc(lam, alpha))
        nf = count_affine_factorizations(w, alpha)
        if na != nf:
            bad.append((lam.parts, list(alpha), na, nf))
    return [(not bad, bad)]


def _monk_check(case):
    """The verdict off the core sides; the public checker renders the report of a failure only."""
    match = schubert._verdict(*schubert._affine_monk_sides(*case))
    return [(match, None if match else schubert.affine_monk_check(*case))]


def _rect_pieri_check(case):
    """As `_monk_check` for each b < r of one (r, lam), with whether the two strip readings agree."""
    r, lam, n = case
    results = []
    for b, (lhs, ribbons, tails) in enumerate(schubert._rect_pieri_sides(*case), start=1):
        match = schubert._verdict(lhs, ribbons)
        results.append((match, None if match else schubert.rect_pieri_check(r, b, lam, n), ribbons == tails))
    return results


def _monk_cases(n: int, max_size: int):
    return [(r, lam, n) for lam in _bounded_up_to(n, max_size) for r in range(1, n)]


def _rect_pieri_cases(n: int, max_size: int):
    return [(r, lam, n) for lam in _bounded_up_to(n, max_size) for r in range(2, n)]


#: sweep -> (the bound it reads, cases(n, bound), check(case) -> the results of the instances
#: of the case, each (match, failure, anything else the extras read), None or the extra report
#: fields read off all the results); a rect-Pieri case is one (r, lam) and holds every b < r;
#: the homology checks find the schubert functions per call
SWEEPS = {
    "affine-monk": ("max_size", _monk_cases, _monk_check, None),
    "rect-pieri": (
        "max_size", _rect_pieri_cases, _rect_pieri_check,
        lambda results: {"reading_disagreements": sum(not agree for _, _, agree in results)},
    ),
    "prop-main": ("max_deg", _cores_up_to, _prop_main_check, None),
    "theta-bijection": ("max_deg", _cores_up_to, _theta_check, None),
}


def cmd_verify(args) -> int:
    """Run one sweep; a sweep that checks nothing is a usage error."""
    bound, list_cases, check, extra = SWEEPS[args.sweep]
    for opt in ("max_deg", "max_size"):
        if opt != bound and getattr(args, opt) is not None:
            raise ValueError(f"the {args.sweep} sweep does not read --{opt.replace('_', '-')}")
    limit = 6 if getattr(args, bound) is None else getattr(args, bound)
    instance = {"n": args.n, bound: limit}
    cases = list_cases(args.n, limit)
    if not cases:
        raise ValueError(f"the {args.sweep} sweep has no instances at {instance}")
    results = [result for case in cases for result in check(case)]
    failures = [failure for match, failure, *_ in results if not match]
    report = {"conjecture": args.sweep, "instance": instance, "match": not failures,
              "instances": len(results), "lhs": [], "rhs": [], "failures": failures,
              **(extra(results) if extra else {})}
    print(json.dumps(report, sort_keys=True))
    return 0 if not failures else 2


# -- options -----------------------------------------------------------------

#: A subcommand: its handler, help line and options {name: (kind, help)}.  An
#: option's flag is --name, and its field is the name with _ for -.  Its kind is
#: str, int, the least integer it allows, a tuple of choices, or the dict of the
#: fields a flag sets.  Fields are None unless `defaults` gives them a value;
#: `positional` is the (name, choices) of the one positional.
Command = namedtuple(
    "Command", "func help options required exclusive defaults positional",
    defaults=(("n",), (("core", "bounded"),), {"json": False}, ()),
)
_COUNT, _MODULUS = 0, 2
_COMMON = {"n": (_MODULUS, "the modulus"), "json": ({"json": True}, "print one line of JSON")}
_SHAPE = {"core": (str, "an n-core, as 3,1,1"), "bounded": (str, "a partition with parts below n")}
COMMANDS = {
    "cores": Command(cmd_cores, "list n-cores by degree", {
        **_COMMON, "deg": (_COUNT, "one degree"), "max-deg": (_COUNT, "every degree up to this; default 6"),
    }, exclusive=(("deg", "max-deg"),)),
    "strips": Command(cmd_strips, "enumerate strips", {
        **_COMMON, **_SHAPE, "kind": (("horizontal", "strong", "ribbon"), "the kind of strip"),
        "m": (_COUNT, "horizontal, strong; default 1"), "to": (str, "target core for strong strips"),
        "r": (int, "ribbon"), "b": (int, "ribbon"),
    }, defaults={"json": False, "kind": "horizontal"}),
    "abc": Command(cmd_abc, "enumerate affine Bruhat countertableaux", {
        **_COMMON, **_SHAPE, "weight": (str, "composition; default all partition weights"),
    }),
    "kf-table": Command(cmd_kf_table, "Kostka-Foulkes tables", {
        **_COMMON, "deg": (_COUNT, "the degree"), "weak": ({"weak": True}, "the weak table of n"),
        "at-t": (int, "the value of t"),
    }, ("n", "deg"), (), {"json": False, "weak": False}),
    "expand": Command(cmd_expand, "basis expansions in m", {
        **_COMMON, "basis": (("dualk", "k", "ptilde", "h0t"), "the basis"), **_SHAPE,
        "t1": ({"at_t": 1}, "same as --at-t 1"), "at-t": (int, "the value of t"),
    }, ("n", "basis"), (("core", "bounded"), ("t1", "at-t"))),
    "pieri": Command(cmd_pieri, "the three Pieri rules with agreement diff", {
        **_COMMON, **_SHAPE, "m": (int, "the degree of h_m"),
    }, ("n", "m")),
    "verify": Command(cmd_verify, "conjecture verification sweeps", {
        **_COMMON, "max-deg": (_COUNT, "prop-main, theta-bijection; default 6"),
        "max-size": (_COUNT, "affine-monk, rect-pieri; default 6"),
    }, (), (), {"json": False, "n": 4}, ("sweep", tuple(SWEEPS))),
}
#: what _parse_args reads before the command: -h, or the command itself
_TOP = Command(None, "", {}, (), (), {}, ("command", tuple(COMMANDS)))


def _help(commands) -> str:
    """The usage of each command, read off COMMANDS."""
    lines = []
    for command in commands:
        cmd = COMMANDS[command]
        sweeps = " {" + ",".join(cmd.positional[1]) + "}" if cmd.positional else ""
        lines.append(f"kschur {command}{sweeps}: {cmd.help}")
        for name, (kind, text) in cmd.options.items():
            value = " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else " " + name.upper()
            value = "" if isinstance(kind, dict) else value
            notes = [text] + ["required"] * (name in cmd.required)
            notes += [f"not with --{pair[pair[0] == name]}" for pair in cmd.exclusive if name in pair]
            notes += [f"default {cmd.defaults[name]}"] if value and name in cmd.defaults else []
            lines.append(f"  --{name + value:<28} {'; '.join(notes)}")
    return "\n".join(lines)


def _value(what: str, kind, token: str):
    """token read as a value of this kind (see Command)."""
    if kind is str or isinstance(kind, tuple) and token in kind:
        return token
    if isinstance(kind, tuple):
        raise ValueError(f"argument {what}: invalid choice: {token!r} (choose from {', '.join(kind)})")
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"argument {what}: not an integer: {token!r}") from None
    if kind is not int and value < kind:
        raise ValueError(f"argument {what}: must be at least {kind}, got {value}")
    return value


def _option(token: str, flags: dict):
    """(name, the value after = or None) if token is an option, else None.

    flags maps each flag to its option name, and -h and --help to None.  A
    unique prefix names its flag, an unknown option's name is "", and a
    negative number is a value.
    """
    if token[:1] != "-" or token == "-":
        return None
    key, eq, value = token.partition("=")
    matches = [key] if key in flags else [flag for flag in flags if token[1] == "-" and flag.startswith(key)]
    if len(matches) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return flags[matches[0]], value if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ("", None)


def _parse_args(argv):
    """The namespace of a command line, or None once the help it asks for is printed.

    One pass reads the tokens left to right: a bad value fails at once, an
    unknown token or a missing option only at the end, so a later -h still
    prints the help.
    """
    command, cmd, flags, fields = None, _TOP, {"-h": None, "--help": None}, {}
    extra, seen, at, dashed, j = [], set(), None, False, 0
    while j < len(argv):
        token, j = argv[j], j + 1
        if token == "--" and command and not dashed:
            # the rest is positional; the -- itself is dropped only next to verify's sweep
            dashed = True
            if not cmd.positional or at not in (None, j - 2):
                extra.append(token)
            continue
        opt = None if dashed or token == "--" else _option(token, flags)
        if opt is None and command is None:  # the command: its options from here on
            command, cmd = token, COMMANDS[_value("command", cmd.positional[1], token)]
            flags = {"--" + name: name for name in cmd.options} | flags
            fields = {name.replace("-", "_"): None for name, (kind, _) in cmd.options.items()
                      if not isinstance(kind, dict)} | cmd.defaults | dict.fromkeys(cmd.positional[:1])
        elif opt is None and cmd.positional and at is None:
            fields[cmd.positional[0]], at = _value(*cmd.positional, token), j - 1
        elif opt is None or opt[0] == "":  # a stray value or an unknown option
            extra.append(token)
        else:
            name, value = opt
            kind, flag = (cmd.options[name][0], "--" + name) if name else ({}, "-h/--help")
            if isinstance(kind, dict) and value is not None:
                raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
            if name is None:
                print(_help([command]) if command else __doc__ + "\n" + _help(COMMANDS))
                return None
            if isinstance(kind, dict):
                fields.update(kind)
            else:
                if value is None:
                    if j == len(argv) or argv[j] == "--" or _option(argv[j], flags) is not None:
                        raise ValueError(f"argument {flag}: expected one argument")
                    value, j = argv[j], j + 1
                fields[name.replace("-", "_")] = _value(flag, kind, value)
            for pair in cmd.exclusive:
                if name in pair and (other := pair[pair[0] == name]) in seen:
                    raise ValueError(f"argument {flag}: not allowed with argument --{other}")
            seen.add(name)
    missing = ["--" + name for name in cmd.required if name not in seen]
    if missing or cmd.positional and at is None:
        raise ValueError(f"the following arguments are required: {', '.join(missing or cmd.positional[:1])}")
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, **fields)


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
            code = 0 if args is None else COMMANDS[args.command].func(args)
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
