"""Command line interface: schemas, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys

import kschur
from kschur.cli import COMMANDS, SWEEPS, _parse_args, main
from kschur.cores import NCore

from oracles import build_parser


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cores_json_schema(capsys):
    code, out = run(capsys, "cores", "--n", "4", "--max-deg", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["core"] == {"n": 4, "shape": []}
    assert all(set(row) == {"degree", "core", "bounded", "word"} for row in data)


def test_output_deterministic(capsys):
    _, out1 = run(capsys, "strips", "--n", "4", "--core", "3,1,1", "--m", "2", "--json")
    _, out2 = run(capsys, "strips", "--n", "4", "--core", "3,1,1", "--m", "2", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert {tuple(d["nu"]["shape"]) for d in data} == {
        (3, 1, 1, 1),
        (4, 1, 1),
        (3, 2, 1),
    }


def test_pieri_agreement(capsys):
    code, out = run(capsys, "pieri", "--n", "4", "--core", "3,1,1", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weak_horizontal_agree"] is True
    assert len(data["weak"]) == 3


def test_abc_roundtrip_schema(capsys):
    code, out = run(
        capsys, "abc", "--n", "6", "--core", "4,3", "--weight", "3,3,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert any(
        entry["lambda_chain"] == [[], [3], [4, 2], [4, 3]] for entry in data
    )
    for entry in data:
        assert entry["weight"] == [3, 3, 1]
        assert "cocharge" in entry


def test_cores_default_max_deg(capsys):
    code, out = run(capsys, "cores", "--n", "3", "--json")
    assert code == 0
    assert max(row["degree"] for row in json.loads(out)) == 6


def test_expand_t1_is_at_t_one(capsys):
    # H_mu(x;0,1) = h_mu: the k-Schur function at t = 1 is labelled h either way
    for basis, bounded in (
        ("ptilde", "2,1"), ("ptilde", "2,1,1"), ("h0t", "3,1"), ("k", "3,1"), ("k", "2,2,1"),
        ("dualk", "3,1"), ("dualk", "2,2,1"),
    ):
        for fmt in ((), ("--json",)):
            argv = ("expand", "--n", "5", "--basis", basis, "--bounded", bounded, *fmt)
            code, out = run(capsys, *argv, "--t1")
            assert (code, out) == run(capsys, *argv, "--at-t", "1"), argv


def test_at_t_one_reads_kn_off_weak_pieri(capsys, monkeypatch):
    # --at-t 1 is --t1: k and dualk read Kn(1) off weak Pieri and run no cocharge DP
    from kschur import symfun

    def no_dp(*args):
        raise AssertionError("the cocharge DP ran at t = 1")

    monkeypatch.setattr(symfun, "_cocharge_fiber", no_dp)
    for cache in (symfun._kn_column, symfun._kschur_row, symfun._dualk_row):
        cache.cache_clear()
    for basis in ("k", "dualk"):
        for shape in (("--bounded", "3,2,1"), ("--core", "4,2,1")):
            argv = ("expand", "--n", "5", "--basis", basis, *shape, "--json")
            code, out = run(capsys, *argv, "--t1")
            assert code == 0
            assert run(capsys, *argv, "--at-t", "1") == (code, out), argv


def test_kf_table_weak_at_one(capsys):
    code, out = run(
        capsys, "kf-table", "--n", "6", "--deg", "7", "--weak", "--at-t", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    row = next(r for r in data["rows"] if r["lambda"] == [4, 3])
    entry = next(e for e in row["entries"] if e["mu"] == [3, 3, 1])
    assert entry["coeff"] >= 1  # the weight-(3,3,1) countertableau exists


def test_expand_dualk(capsys):
    code, out = run(
        capsys, "expand", "--n", "4", "--basis", "dualk", "--core", "3,1,1",
        "--t1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    lead = next(t for t in data["terms"] if t["partition"] == [2, 1, 1])
    assert lead["coeff"] == [1]


def test_verify_prop_main(capsys):
    code, out = run(capsys, "verify", "prop-main", "--n", "4", "--max-deg", "5")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["instances"] > 0


def test_verify_theta(capsys):
    code, out = run(capsys, "verify", "theta-bijection", "--n", "3", "--max-deg", "5")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_affine_monk(capsys):
    code, out = run(capsys, "verify", "affine-monk", "--n", "4", "--max-size", "5")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_rect_pieri(capsys):
    code, out = run(capsys, "verify", "rect-pieri", "--n", "4", "--max-size", "4")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert "reading_disagreements" in data


def test_expand_laurent_coefficients(capsys):
    code, out = run(
        capsys, "expand", "--n", "4", "--basis", "ptilde", "--bounded", "1,1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"partition": [1, 1], "coeff": {"valuation": -1, "coeffs": [1]}}
    ]


def usage_error(capsys, *argv):
    """Exit code 1 with an error message on stderr and nothing on stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err.startswith("error: "), argv
    assert captured.out == "", argv
    return code


def test_usage_error_exit_code(capsys):
    assert usage_error(capsys, "cores") == 1  # missing --n
    assert usage_error(capsys, "verify", "nonsense") == 1
    assert usage_error(capsys, "pieri", "--n", "4", "--core", "3,1,1", "--m", "5") == 1
    assert usage_error(capsys, "expand", "--n", "4", "--basis", "ptilde") == 1
    assert usage_error(capsys, "expand", "--n", "4", "--basis", "h0t") == 1
    assert usage_error(capsys, "cores", "--n", "4", "--deg", "-1") == 1
    assert usage_error(capsys, "cores", "--n", "4", "--max-deg", "-1") == 1
    assert usage_error(capsys, "cores", "--n", "4", "--deg", "2", "--max-deg", "3") == 1
    assert usage_error(capsys, "verify", "prop-main", "--max-deg", "-1") == 1
    assert usage_error(capsys, "verify", "affine-monk", "--max-size", "-1") == 1
    assert usage_error(capsys, "kf-table", "--n", "4", "--deg", "-1") == 1
    assert usage_error(capsys, "strips", "--n", "4", "--core", "3,1,1", "--m", "-1") == 1
    assert usage_error(capsys, "strips", "--n", "4", "--core", "3,1,1", "--m", "7") == 1
    assert usage_error(capsys, "abc", "--n", "4", "--core", "3,1,1", "--weight", "1,1") == 1
    assert usage_error(
        capsys, "strips", "--n", "4", "--core", "3,1,1", "--kind", "strong", "--to", "2,1", "--m", "1"
    ) == 1
    assert usage_error(capsys, "cores", "--n", "1") == 1
    assert usage_error(capsys, "expand", "--n", "0", "--basis", "k", "--core", "1") == 1
    assert usage_error(capsys, "verify", "theta-bijection", "--n", "1") == 1
    assert usage_error(capsys, "cores", "--n", "four") == 1
    assert usage_error(capsys, "strips", "--n", "4", "--core", "2", "--bounded", "1") == 1
    assert usage_error(capsys, "verify", "affine-monk", "--n", "4", "--max-deg", "2") == 1
    assert usage_error(capsys, "verify", "prop-main", "--n", "4", "--max-size", "1") == 1
    assert usage_error(capsys, "verify", "theta-bijection", "--max-size", "1") == 1
    assert usage_error(capsys, "verify", "rect-pieri", "--max-deg", "1") == 1
    # strips options that the chosen --kind does not read
    assert usage_error(capsys, "strips", "--n", "4", "--core", "3,1,1", "--r", "2") == 1
    assert usage_error(capsys, "strips", "--n", "4", "--core", "3,1,1", "--b", "1") == 1
    assert usage_error(capsys, "strips", "--n", "4", "--core", "3,1,1", "--to", "4,1,1") == 1
    assert usage_error(
        capsys, "strips", "--n", "4", "--core", "3", "--kind", "strong", "--to", "4,1,1",
        "--m", "2", "--r", "2",
    ) == 1
    assert usage_error(
        capsys, "strips", "--n", "5", "--bounded", "4,2", "--kind", "ribbon", "--r", "3",
        "--b", "2", "--m", "1",
    ) == 1
    assert usage_error(
        capsys, "strips", "--n", "5", "--bounded", "4,2", "--kind", "ribbon", "--r", "3",
        "--b", "2", "--to", "4,2",
    ) == 1


def test_bad_partition_exit_code(capsys):
    assert usage_error(capsys, "pieri", "--n", "4", "--core", "1,2", "--m", "1") == 1
    assert usage_error(capsys, "pieri", "--n", "4", "--core", "3,x", "--m", "1") == 1
    assert usage_error(capsys, "abc", "--n", "4", "--bounded", "2,,1") == 1
    assert usage_error(capsys, "expand", "--n", "4", "--basis", "h0t", "--bounded", "x") == 1


def test_expand_t1_and_at_t_are_exclusive(capsys):
    # both options specialize t, so giving both is a usage error, in either order
    argv = ("expand", "--basis", "dualk", "--n", "3", "--bounded", "1,1,1")
    assert usage_error(capsys, *argv, "--t1", "--at-t", "2") == 1
    assert usage_error(capsys, *argv, "--at-t", "2", "--t1") == 1


def test_verify_affine_monk_without_instances(capsys):
    assert usage_error(capsys, "verify", "affine-monk", "--n", "1") == 1


def test_verify_rect_pieri_without_instances(capsys):
    assert usage_error(capsys, "verify", "rect-pieri", "--n", "2") == 1


def test_parallel_sweep_env(capsys, monkeypatch):
    monkeypatch.setenv("ASK_THREADS", "2")
    code, out = run(capsys, "verify", "prop-main", "--n", "3", "--max-deg", "4")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_mismatch_exits_two(capsys, monkeypatch):
    # the sweeps read the core sides; a failure's report is rendered from the same sides
    from kschur import schubert

    def failing_sides(r, lam, n):
        one = NCore(n, (1,))
        return {one: 2}, {one}

    monkeypatch.setattr(schubert, "_affine_monk_sides", failing_sides)
    code, out = run(capsys, "verify", "affine-monk", "--n", "3", "--max-size", "1")
    assert code == 2
    report = json.loads(out)
    assert report["match"] is False
    assert report["failures"]  # witnesses carried through
    assert report["failures"][0]["lhs"] == [[[1], 2]]

    def failing_rect_sides(r, lam, n):
        one = NCore(n, (1,))
        return [({}, {one}, {one} if r == 2 else set()) for _b in range(1, r)]

    monkeypatch.setattr(schubert, "_rect_pieri_sides", failing_rect_sides)
    code, out = run(capsys, "verify", "rect-pieri", "--n", "4", "--max-size", "1")
    assert code == 2
    report = json.loads(out)
    assert report["match"] is False
    assert report["instances"] == len(report["failures"]) == 2 * 3  # lambda () and (1)
    assert report["failures"][0]["conjecture"] == "rect-pieri"
    assert report["reading_disagreements"] == 2 * 2  # every r=3 instance


def test_each_command_builds_only_the_format_it_prints(capsys, monkeypatch):
    # with --json no text line is rendered, without it no JSON payload; the output is unchanged
    import kschur.cli as cli
    from kschur.abctab import ABC
    from kschur.tpoly import TPoly

    json_calls = [
        "abc --n 4 --core 3,1,1 --json",
        "abc --n 5 --bounded 3,2,1 --weight 2,3,1 --json",
        "strips --n 4 --core 3,1,1 --kind horizontal --m 2 --json",
        "expand --n 4 --basis dualk --bounded 2,2,1 --json",
        "expand --n 4 --basis k --bounded 3,1 --json",
        "kf-table --n 3 --deg 4 --weak --json",
    ]
    text_calls = [call.removesuffix(" --json") for call in json_calls]
    want = {call: run(capsys, *call.split()) for call in json_calls + text_calls}

    def refuse(*_args, **_kwargs):
        raise AssertionError("rendered a format that is not printed")

    psi, psi_calls = cli.psi, []

    def counted_psi(strip):
        psi_calls.append(strip)
        return psi(strip)

    with monkeypatch.context() as patch:
        patch.setattr(ABC, "pretty", refuse)
        patch.setattr(TPoly, "__repr__", refuse)
        patch.setattr(cli, "psi", counted_psi)
        for call in json_calls:
            assert run(capsys, *call.split()) == want[call], call
            assert want[call][0] == 0
    # one psi per horizontal strip: the word is read once, for the JSON only
    assert len(psi_calls) == len(json.loads(want[json_calls[2]][1]))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "core_json", refuse)
        patch.setattr(cli, "tpoly_json", refuse)
        for call in text_calls:
            assert run(capsys, *call.split()) == want[call], call
            assert want[call][0] == 0


def test_shared_parser_keeps_no_state(capsys):
    # one interpreter, one parser: each call prints what a fresh process prints
    calls = [
        "cores --n 4 --deg 2 --max-deg 3",
        "verify affine-monk --n 4",
        "verify prop-main --n 4",
        "strips --n 4 --core 3,1,1 --m 2",
        "strips --n 5 --bounded 4,2 --kind ribbon --r 3 --b 2",
        "abc --n 4 --core 3,1,1",
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kschur.__file__)))
    for argv in calls:
        code = main(argv.split())
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "kschur.cli", *argv.split()],
            capture_output=True, text=True, env=env,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


def test_closed_stdout_exits_one_without_traceback():
    # the reader is gone before the CLI writes: exit 1, nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kschur.__file__)))
    argv = "pieri --n 7 --bounded 4,3,1 --m 4 --json".split()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kschur.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cores_at_a_high_degree_builds_levels_without_recursion():
    # one 2-core per degree; the levels are built in a loop, not one frame each
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kschur.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "kschur.cli", *"cores --n 2 --deg 600 --json".split()],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    (entry,) = json.loads(proc.stdout)
    assert entry["degree"] == 600


# -- the option table against the argparse parser it replaced ----------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _argv_corpus(name):
    with open(os.path.join(ROOT, *name.split("/"))) as fh:
        data = json.load(fh)
    return [entry["argv"].split() for entry in (data["queries"] if "queries" in data else data)]


def _flags():
    return sorted({"--" + name for cmd in COMMANDS.values() for name in cmd.options})


def _malformed(rng, count):
    """Seeded argvs around the table: bad values, = forms, prefixes, strays and --.

    No `--opt=--`: argparse read it as an empty list, a defect that
    test_option_refusals covers.
    """
    values = ["4", "2", "1", "0", "-1", "-0", "1.5", "x", "", " 3", "3,1,1", "2,1", "-", "--", "-x",
              "horizontal", "ribbon", "k", "ptilde", "prop-main", "rect-pieri", "nonsense"]
    flags = _flags() + ["--bogus", "--max", "--b", "--t", "--=3", "-x"]
    out = []
    for _ in range(count):
        argv = [rng.choice(list(COMMANDS) + ["bogus", "--n"])]
        for _ in range(rng.randint(0, 6)):
            flag = rng.choice(flags)
            flag = flag[:rng.randint(3, len(flag))] if len(flag) > 3 and rng.random() < 0.2 else flag
            shape = rng.random()
            if shape < 0.3:
                argv.append(flag + "=" + rng.choice([v for v in values if v != "--"]))
            elif shape < 0.8:
                argv += [flag, rng.choice(values)]
            else:
                argv.append(rng.choice(values + [flag]))
        out.append(argv)
    return out


def _outcome(parse, argv):
    try:
        return vars(parse(list(argv)))
    except ValueError:
        return "error"


def test_parser_matches_the_argparse_oracle():
    # the same fields on success, a failure on both sides otherwise; -h is tested on its own
    oracle = build_parser()
    argvs = _argv_corpus("tests/golden/cases.json") + _argv_corpus("bench/session_pool.json")
    argvs += _malformed(random.Random(23), 3000)
    outcomes = {"error": 0, "ok": 0}
    for argv in argvs:
        want = _outcome(oracle.parse_args, argv)
        assert _outcome(_parse_args, argv) == want, argv
        outcomes["error" if want == "error" else "ok"] += 1
    assert outcomes["ok"] > 2741 and outcomes["error"] > 1000


def test_option_forms(capsys):
    # = forms, unique prefixes, last-wins repeats, negative values and the sweep anywhere
    same = [
        ("cores --n 4 --max-deg 3", "cores --n=4 --max 3", "cores --n 5 --ma=3 --n 4"),
        ("expand --n 4 --basis k --core 3,1,1 --t1", "expand --basis=k --co 3,1,1 --n 4 --at-t 1"),
        ("verify prop-main --n 4 --max-deg 3", "verify --n 4 prop-main --max-d 3",
         "verify --n 4 --max-deg 3 prop-main", "verify --n 4 --max-deg 3 -- prop-main"),
    ]
    for calls in same:
        outs = {run(capsys, *call.split()) for call in calls}
        assert len(outs) == 1 and next(iter(outs))[0] == 0, calls
    assert _parse_args("expand --n 4 --basis k --core 1 --at-t -1".split()).at_t == -1
    assert _parse_args("strips --n 5 --bounded 4,2 --kind ribbon --r -1 --b 2".split()).r == -1


def test_option_refusals(capsys):
    assert usage_error(capsys, "verify", "prop-main", "--max", "3") == 1  # ambiguous prefix
    assert usage_error(capsys, "cores", "--n", "4", "--json=1") == 1
    assert usage_error(capsys, "cores", "--n", "--json") == 1
    assert usage_error(capsys, "cores", "--n", "4", "--bogus") == 1
    assert usage_error(capsys, "cores", "--n", "4", "extra") == 1
    assert usage_error(capsys, "cores", "--n", "4", "--") == 1
    assert usage_error(capsys) == 1
    # argparse read `--opt=--` as an empty list, which the commands then failed on
    for argv in ("cores --n=--", "abc --n 4 --core=--", "strips --n 4 --core 3 --m=--"):
        assert usage_error(capsys, *argv.split()) == 1
    # the strip options each kind needs
    for argv, err in (("--kind strong", "--to is required for strong strips"),
                      ("--kind ribbon --b 1", "--r and --b are required for ribbon strips"),
                      ("--kind ribbon --r 2", "--r and --b are required for ribbon strips")):
        code = main(["strips", "--n", "4", "--core", "3", *argv.split()])
        assert (code, capsys.readouterr().err) == (1, f"error: {err}\n"), argv
    code = main(["cores", "--n", "four"])
    assert (code, capsys.readouterr().err) == (1, "error: argument --n: not an integer: 'four'\n")
    code = main(["cores", "--n", "1"])
    assert (code, capsys.readouterr().err) == (1, "error: argument --n: must be at least 2, got 1\n")
    # --bounded takes parts < n for every basis, as c_map refuses them
    for basis in ("ptilde", "h0t", "dualk", "k"):
        code = main(["expand", "--n", "3", "--basis", basis, "--bounded", "5,1"])
        assert (code, capsys.readouterr()) == (1, ("", "error: parts must be < 3\n")), basis


def test_help_lists_every_command_option_and_sweep(capsys):
    code, out = run(capsys, "-h")
    assert code == 0
    for command, cmd in COMMANDS.items():
        assert f"kschur {command}" in out
        code, own = run(capsys, command, "--help")
        assert code == 0 and own in out
        for name in cmd.options:
            assert f"--{name} " in own, (command, name)
    for sweep in SWEEPS:
        assert sweep in own  # verify comes last


def test_fuzzed_command_lines_exit_cleanly(capsys):
    # seeded small argvs: no exception escapes main, and exit 1 is an error line alone;
    # half of them give every required option, so that they reach the commands
    rng = random.Random(7)
    values = ["-1", "0", "1", "2", "3", "4", "x", "", "-", "--", "3,1,1", "2,1", "1", "4,2", "2,1,1", "1,2"]
    flags = _flags() + ["--bogus", "-h", "-x"]
    codes = set()
    for _ in range(2000):
        command = rng.choice(list(COMMANDS) + ["bogus"])
        cmd, argv = COMMANDS.get(command), [command]
        if cmd and rng.random() < 0.5:
            argv += [rng.choice(cmd.positional[1])] if cmd.positional else []
            for name in cmd.required + tuple(rng.sample(list(cmd.options), 2)):
                kind = cmd.options[name][0]
                argv += ["--" + name] if isinstance(kind, dict) else [
                    "--" + name, rng.choice(kind if isinstance(kind, tuple) else values[1:5])]
        for _ in range(rng.randint(0, 3)):
            flag = rng.choice(flags)
            flag = flag[:rng.randint(3, len(flag))] if len(flag) > 3 and rng.random() < 0.2 else flag
            argv += [flag + "=" + rng.choice(values)] if rng.random() < 0.3 else [flag, rng.choice(values)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            assert captured.err.startswith("error:") and captured.out == "", argv
        codes.add(code)
    assert {0, 1} <= codes
