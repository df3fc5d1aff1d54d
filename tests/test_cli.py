"""Driver-level tests: every subcommand, exit codes, byte-stable output.

The negative control at the bottom runs in a subprocess so the deliberately
broken involution table cannot leak into this process's caches.
"""

import json
import os
import resource
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qhammock
from qhammock.cli import main

A2 = '{"type":"A","rank":2,"arrows":[[1,2]]}'
A4_MIXED = '{"type":"A","rank":4,"arrows":[[1,2],[2,3],[4,3]]}'
D4 = '{"type":"D","rank":4,"arrows":[[1,2],[2,3],[2,4]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _src_env():
    """The environment with this package's source first on PYTHONPATH, for
    a child interpreter."""
    src = str(Path(qhammock.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# ----------------------------------------------------------------- roots


def test_roots_counts(capsys):
    for cfg, want in [(A2, 3), (A4_MIXED, 10), (D4, 12)]:
        code, out = run(capsys, "roots", "--quiver", cfg, "--format", "tsv")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("root\t")]
        assert len(rows) == want


def test_roots_tsv_a2_exact(capsys):
    code, out = run(capsys, "roots", "--quiver", A2, "--format", "tsv")
    assert code == 0
    assert out == (
        "root\theight\tdominant\tsupport\tpivots\n"
        "0,1\t1\tY:1:1^1 Y:2:-2^1\t2\t2\n"
        "1,0\t1\tY:1:-1^1\t1\t1\n"
        "1,1\t2\tY:2:-2^1\t1,2\t2\n"
    )


def test_roots_json_sorted(capsys):
    code, out = run(capsys, "roots", "--quiver", D4, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    assert rows == sorted(rows, key=lambda r: (r["height"], r["root"]))


# --------------------------------------------------------------- hammock


GRID = (
    "i\\p\t-3\t-2\t-1\t0\t1\t2\t3\t4\t5\n"
    "1\t0\t.\t0\t.\t1\t.\t0\t.\t-1\n"
    "2\t.\t0\t.\t1\t.\t1\t.\t-1\t.\n"
    "3\t0\t.\t1\t.\t1\t.\t0\t.\t-1\n"
    "4\t.\t0\t.\t1\t.\t0\t.\t0\t.\n"
)


def test_hammock_grid_matches_figure(capsys):
    code, out = run(
        capsys,
        "hammock",
        "--quiver",
        A4_MIXED,
        "--vertex",
        "3,-1",
        "--window=-3,5",
        "--format",
        "tsv",
    )
    assert code == 0
    assert out == GRID


def test_hammock_default_window(capsys):
    # window defaults to [p-2, p+coxeter]
    code, out = run(capsys, "hammock", "--quiver", A2, "--vertex", "1,1", "--format", "tsv")
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header[1] == "-1" and header[-1] == "4"


def test_hammock_degenerate_window(capsys):
    code, out = run(
        capsys, "hammock", "--quiver", A2, "--vertex", "1,1", "--window=1,1",
        "--format", "tsv",
    )
    assert code == 0
    assert out == "i\\p\t1\n1\t1\n2\t.\n"


def test_hammock_json_and_dot_exact(capsys):
    window = ("hammock", "--quiver", A2, "--vertex", "1,1", "--window=-1,3")
    code, out = run(capsys, *window, "--format", "json")
    assert code == 0
    assert out == (
        '{\n'
        '  "1,-1": 0,\n'
        '  "1,1": 1,\n'
        '  "1,3": 0,\n'
        '  "2,0": 0,\n'
        '  "2,2": 1\n'
        '}\n'
    )
    code, out = run(capsys, *window, "--format", "dot")
    assert code == 0
    assert out == (
        'digraph zq {\n'
        '  graph [rankdir=LR, splines=line];\n'
        '  node [shape=box, fontsize=10, margin="0.04,0.02"];\n'
        '  v1_m1 [label="0", pos="-1,-1!"];\n'
        '  v1_1 [label="1", style=filled, fillcolor="gray85", pos="1,-1!"];\n'
        '  v1_3 [label="0", pos="3,-1!"];\n'
        '  v2_0 [label="0", pos="0,-2!"];\n'
        '  v2_2 [label="1", pos="2,-2!"];\n'
        '  v1_m1 -> v2_0;\n'
        '  v1_1 -> v2_2;\n'
        '  v2_0 -> v1_1;\n'
        '  v2_2 -> v1_3;\n'
        '}\n'
    )


def test_hammock_bad_vertex(capsys):
    code, _ = run(capsys, "hammock", "--quiver", A2, "--vertex", "1,0")
    assert code == 2  # parity violation -> config-level rejection


# --------------------------------------------------------------- complex


def test_complex_chi(capsys):
    code, out = run(capsys, "complex", "--quiver", A2, "--beta", "1,1", "--emit", "chi")
    assert code == 0
    assert out.strip() == "Y:1:-1^1 Y:2:0^-1 + Y:1:1^-1 + Y:2:-2^1"


def test_complex_terms_shape(capsys):
    code, out = run(capsys, "complex", "--quiver", A2, "--beta", "1,1")
    assert code == 0
    assert "degree 0: 1 summand(s)" in out
    assert "degree 2: 1 summand(s)" in out
    assert "denominator exponents: 1:1,2:1" in out


def test_complex_json_pivot(capsys):
    code, out = run(
        capsys, "complex", "--quiver", A2, "--beta", "1,1", "--pivot", "1",
        "--emit", "json",
    )
    assert code == 0
    j = json.loads(out)
    assert set(j) == {"denominator", "terms", "differentials"}


def test_complex_bad_pivot(capsys):
    code, _ = run(capsys, "complex", "--quiver", A2, "--beta", "1,0", "--pivot", "2")
    assert code == 2


# ----------------------------------------------------------------- qchar


def test_qchar_single_route_tsv(capsys):
    code, out = run(
        capsys, "qchar", "--quiver", A2, "--beta", "1,1", "--route", "euler",
        "--format", "tsv",
    )
    assert code == 0
    assert out == (
        "monomial\tcoefficient\n"
        "Y:1:-1^1 Y:2:0^-1\t1\n"
        "Y:1:1^-1\t1\n"
        "Y:2:-2^1\t1\n"
    )


def test_qchar_all_routes_verdict(capsys):
    code, out = run(
        capsys, "qchar", "--quiver", A2, "--beta", "1,1", "--route", "all",
        "--format", "json",
    )
    assert code == 0
    j = json.loads(out)
    assert j["equal"] is True
    assert set(j["routes"]) == {"euler", "recursion", "cluster"}
    assert j["routes"]["euler"] == j["routes"]["cluster"]
    # strictly integer coefficients in every route
    for rows in j["routes"].values():
        for row in rows:
            assert isinstance(row["coeff"], int)


def test_qchar_text_verdict_line(capsys):
    code, out = run(capsys, "qchar", "--quiver", A2, "--beta", "0,1", "--route", "all")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: pass"


def test_qchar_non_root_all_routes(capsys):
    # the cluster route has nothing to offer for a non-root vector
    code, _ = run(capsys, "qchar", "--quiver", A2, "--beta", "2,1", "--route", "all")
    assert code == 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_qchar_too_deep_exits_2_without_traceback():
    # a vector deeper than the recursion limit is refused input, not a
    # failed verification (exit 1) and not a traceback; the child runs under
    # a time limit and a 2 GiB address-space cap, so a change that lets the
    # recursion go deeper fails here within the limit instead of exhausting
    # memory
    argv = ["qchar", "--quiver", A2, "--beta", "400,400", "--route", "recursion"]
    r = subprocess.run(
        [sys.executable, "-m", "qhammock.cli", *argv], capture_output=True, text=True,
        env=_src_env(), timeout=30, preexec_fn=_cap_address_space,
    )
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["ar-view", "--quiver", A2, "--window", "0,99999999"],
        ["hammock", "--quiver", A2, "--vertex", "1,1", "--window", "0,99999999"],
    ],
    ids=["ar-view", "hammock"],
)
def test_huge_window_exits_2_without_traceback(argv):
    # every vertex of a window is built, so a window of 10^8 slots is
    # refused input before any is; under the same limits as above, a change
    # that builds the window fails here instead of exhausting memory
    r = subprocess.run(
        [sys.executable, "-m", "qhammock.cli", *argv], capture_output=True, text=True,
        env=_src_env(), timeout=30, preexec_fn=_cap_address_space,
    )
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


def test_widest_window_is_drawn(capsys):
    # the cap is a slot span: 1,000 slots are drawn and one more is refused
    code, out = run(capsys, "ar-view", "--quiver", A2, "--window=-500,499", "--format", "dot")
    assert code == 0 and out.count(" -> ") == 999
    assert '"(2,-500)"' in out and '"(1,499)"' in out
    code, out = run(capsys, "ar-view", "--quiver", A2, "--window=-500,500", "--format", "dot")
    assert code == 2 and out == ""


def test_qchar_non_root_euler_only(capsys):
    code, out = run(
        capsys, "qchar", "--quiver", A2, "--beta", "2,1", "--route", "euler",
        "--format", "tsv",
    )
    assert code == 0
    assert len(out.splitlines()) > 2


# --------------------------------------------------------------- cluster


def test_cluster_list_keys(capsys):
    code, out = run(capsys, "cluster", "--quiver", A2, "--list", "--format", "json")
    assert code == 0
    j = json.loads(out)
    assert set(j) == {"-1,0", "0,-1", "0,1", "1,0", "1,1"}


def test_cluster_list_tsv_exact(capsys):
    code, out = run(capsys, "cluster", "--quiver", A2, "--format", "tsv")
    assert code == 0
    assert out == (
        "dvector\tpolynomial\n"
        "-1,0\tx:1^1\n"
        "0,-1\tx:2^1\n"
        "0,1\tX:1^1 x:2^-1 + X:2^1 x:1^1 x:2^-1\n"
        "1,0\tX:1^1 x:1^-1 + x:1^-1 x:2^1\n"
        "1,1\tX:1^1 x:1^-1 x:2^-1 + X:2^1 x:2^-1 + x:1^-1\n"
    )


def test_cluster_single_beta(capsys):
    code, out = run(capsys, "cluster", "--quiver", A2, "--beta", "1,1")
    assert code == 0
    assert out.strip() == "X:1^1 x:1^-1 x:2^-1 + X:2^1 x:2^-1 + x:1^-1"
    code, _ = run(capsys, "cluster", "--quiver", A2, "--beta", "7,7")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["qchar", "--quiver", A2, "--beta", "-1,0", "--route", "all"],
        ["complex", "--quiver", A2, "--beta", "0,-1", "--emit", "chi"],
        ["cluster", "--quiver", A2, "--beta", "-1,0"],
    ],
)
def test_beta_with_a_leading_minus_parses_in_the_space_form(capsys, monkeypatch, argv):
    # `--beta -1,0` reads as `--beta=-1,0` rather than as an unknown
    # option, through main's own argv and through sys.argv alike
    k = argv.index("--beta")
    joined = argv[:k] + [f"--beta={argv[k + 1]}"] + argv[k + 2 :]
    code, want = run(capsys, *joined)
    assert code == 0 and want
    assert run(capsys, *argv) == (0, want)
    monkeypatch.setattr(sys, "argv", ["qq", *argv])
    assert main() == 0 and capsys.readouterr().out == want
    # a negative vector that is not −α_j stays refused input
    refused = argv[: k + 1] + ["-1,-1"] + argv[k + 2 :]
    code, out = run(capsys, *refused)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["hammock", "--quiver", A2, "--vertex", "1,1", "--window", "-1,3", "--format", "json"],
        ["hammock", "--quiver", A4_MIXED, "--vertex", "3,-1", "--window", "-3,5"],
        ["ar-view", "--quiver", A2, "--window", "-1,3", "--format", "dot"],
    ],
)
def test_window_with_a_leading_minus_parses_in_the_space_form(capsys, monkeypatch, argv):
    # `--window -1,3` reads as `--window=-1,3`, as `--beta` does
    k = argv.index("--window")
    joined = argv[:k] + [f"--window={argv[k + 1]}"] + argv[k + 2 :]
    code, want = run(capsys, *joined)
    assert code == 0 and want
    assert run(capsys, *argv) == (0, want)
    monkeypatch.setattr(sys, "argv", ["qq", *argv])
    assert main() == 0 and capsys.readouterr().out == want
    # a window whose first slot exceeds its second stays refused input
    reversed_window = argv[: k + 1] + ["-1,-3"] + argv[k + 2 :]
    code, out = run(capsys, *reversed_window)
    assert code == 2 and out == ""


# ---------------------------------------------------------------- verify


def test_verify_small_sweep(capsys):
    code, out = run(
        capsys, "verify", "--types", "A", "--max-rank", "3", "--format", "json"
    )
    assert code == 0
    j = json.loads(out)
    assert j["ok"] is True
    assert j["quivers"] == 7  # A1 + 2xA2 + 4xA3
    assert j["roots"] == 1 + 2 * 3 + 4 * 6
    assert j["failures"] == []
    assert set(j["clauses"]) == {
        "routes_agree",
        "highest_is_dominant",
        "lowest_is_antidominant",
        "coefficients_positive",
        "leading_coefficient_one",
    }


def test_verify_text_format(capsys):
    code, out = run(
        capsys, "verify", "--types", "A", "--max-rank", "2", "--format", "text"
    )
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_verify_random_orientations_deterministic(capsys):
    args = (
        "verify", "--types", "D", "--max-rank", "4", "--orientations",
        "random:2", "--seed", "5",
    )
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_max_rank_is_capped(capsys, monkeypatch):
    import qhammock.cli as cli

    def refuse(*_):
        raise RuntimeError("a refused --max-rank reached the orientation sweep")

    monkeypatch.setattr(cli, "all_orientations", refuse)
    code = main(["verify", "--types", "A", "--max-rank", "9"])
    assert code == 2
    assert "TooLarge" in capsys.readouterr().err
    # rank 8 is still allowed; with no orientations generated the sweep is empty
    monkeypatch.setattr(cli, "all_orientations", lambda family, rank: iter(()))
    code, out = run(capsys, "verify", "--types", "E", "--max-rank", "8")
    assert code == 0 and json.loads(out)["quivers"] == 0


def test_verify_text_failure_rows_carry_a_replay_command(capsys, monkeypatch):
    # each FAIL row ends with the qq qchar call that reruns its root; the
    # call parses, with the CLI's own parser, to the same quiver and β,
    # and the JSON report keeps its rows as they were
    import qhammock.cli as cli

    real = cli.verify_beta

    def failing(q, xi, beta):
        rep = real(q, xi, beta)
        if q.rank == 3 and tuple(beta) == (1, 1, 0):
            rep = {**rep, "routes_agree": False, "ok": False}
        return rep

    monkeypatch.setattr(cli, "verify_beta", failing)
    code, out = run(capsys, "verify", "--types", "A", "--max-rank", "3", "--format", "text")
    assert code == 1
    rows = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(rows) == 4 and out.splitlines()[-1] == "FAILED (4 roots)"
    replayed = set()
    for row in rows:
        head, command = row.split("  replay: ")
        assert head == "FAIL A3 beta=[1, 1, 0]"
        argv = shlex.split(command)
        assert argv[:2] == ["qq", "qchar"] and argv[-2:] == ["--route", "all"]
        args = cli._build_parser().parse_args(argv[1:])
        q, xi = cli._load_quiver(args.quiver)
        assert cli._parse_beta(q, args.beta) == (1, 1, 0)
        assert xi == qhammock.default_height(q)
        replayed.add(q)
    assert replayed == set(qhammock.all_orientations("A", 3))
    code, out = run(capsys, *argv[1:])
    assert code == 0 and out.splitlines()[-1] == "verdict: pass"

    code, out = run(capsys, "verify", "--types", "A", "--max-rank", "3", "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert [row["beta"] for row in failures] == [[1, 1, 0]] * 4
    assert all(set(row) == {"family", "rank", "arrows", "beta", "clauses"} for row in failures)


NEGATIVE_CONTROL = textwrap.dedent(
    """
    import sys
    import qhammock.quiver as quiver
    import qhammock.repetition as repetition

    def bad(q, i):
        return list(q.vertices)[0]

    quiver.nakayama_involution = bad
    repetition.nakayama_involution = bad
    from qhammock.cli import main
    sys.exit(main(["verify", "--types", "A", "--max-rank", "2",
                   "--format", "json"]))
    """
)


def test_verify_negative_control_subprocess():
    # with a constant involution table the duality checks must collapse:
    # failures are reported per root and the exit code flips to 1
    r = subprocess.run(
        [sys.executable, "-c", NEGATIVE_CONTROL], capture_output=True, text=True, env=_src_env()
    )
    assert r.returncode == 1
    j = json.loads(r.stdout)
    assert j["ok"] is False
    assert len(j["failures"]) == 6  # both A2 orientations x three roots
    assert all("error" in row or "clauses" in row for row in j["failures"])


def test_verify_survives_optimized_mode():
    # invariants are checked by raising, not by assert, so python -O must
    # verify the same sweep and print the same bytes
    env = _src_env()
    argv = ["-m", "qhammock.cli", "verify", "--types", "A", "--max-rank", "3"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env)
    assert plain.returncode == 0 and optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


# ---------------------------------------------------------------- ar-view


def test_ar_view_dot(capsys):
    code, out = run(capsys, "ar-view", "--quiver", A2, "--window=-1,3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "v2_0" in out
    code2, overlay = run(
        capsys, "ar-view", "--quiver", A2, "--window=-1,3", "--vertex", "1,1",
        "--format", "dot",
    )
    assert code2 == 0
    assert "=1" in overlay  # value labels rendered


# ------------------------------------------------------------ config layer


def test_config_rejections(capsys, monkeypatch):
    bad = [
        '{"type":"A","rank":2,"arrows":[[1,2]],"bogus":3}',
        '{"type":"A","rank":2}',
        "not json at all",
        '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"9":1}}',
        '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"1":3,"2":3}}',
        '{"type":"A","rank":"x","arrows":[]}',
        '{"type":"A","rank":2,"arrows":[[1]]}',
        # bools, floats and bare strings are not read as integers or pairs
        '{"type":"A","rank":2.7,"arrows":[[1.9,2.2]]}',
        '{"type":"A","rank":true,"arrows":[]}',
        '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"1":1.5}}',
        '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"1":false}}',
        '{"type":"A","rank":2,"arrows":[[true,2]]}',
        '{"type":"A","rank":2,"arrows":["12"]}',
        # a rank the arrows cannot span is refused before the tree is built
        '{"type":"A","rank":100000000,"arrows":[]}',
    ]
    for cfg in bad:
        code, _ = run(capsys, "roots", "--quiver", cfg)
        assert code == 2, cfg
    # integer strings stay accepted
    code, _ = run(capsys, "roots", "--quiver", '{"type":"A","rank":"2","arrows":[["1","2"]],"xi":{"1":"3"}}')
    assert code == 0
    # an inline literal longer than a file name may be is still read as JSON
    long_literal = '{"type":"A","rank":2,"arrows":[[1,2]],' + " " * 300 + '"xi":null}'
    code, _ = run(capsys, "roots", "--quiver", long_literal)
    assert code == 0
    # an empty sweep is refused before any orientation is generated
    import qhammock.cli as cli

    monkeypatch.setattr(cli, "all_orientations", lambda *_: pytest.fail("sweep was generated"))
    for argv in [
        ("verify", "--types", "E", "--max-rank", "5"),
        ("verify", "--max-rank", "0"),
        ("verify", "--types", ""),
        ("verify", "--orientations", "random:0"),
        ("verify", "--orientations", "random:-3"),
        ("hammock", "--quiver", A2, "--vertex", "1,1", "--window", "3,1"),
        ("ar-view", "--quiver", A2, "--window", "3,1"),
    ]:
        code, out = run(capsys, *argv)
        assert code == 2 and out == "", argv


def test_quiver_config_from_file(tmp_path, capsys):
    p = tmp_path / "quiver.json"
    p.write_text(A2)
    code, out = run(capsys, "roots", "--quiver", str(p), "--format", "tsv")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_partial_height_propagates(capsys):
    cfg = '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"1":3}}'
    code, out = run(capsys, "hammock", "--quiver", cfg, "--vertex", "1,3", "--format", "tsv")
    assert code == 0
    # slots follow the shifted height
    assert out.splitlines()[0].split("\t")[1] == "1"
    # a pinned value the potential agrees with changes nothing
    full = '{"type":"A","rank":2,"arrows":[[1,2]],"xi":{"1":3,"2":2}}'
    assert run(capsys, "hammock", "--quiver", full, "--vertex", "1,3", "--format", "tsv") == (0, out)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run(
        capsys, "roots", "--quiver", A2, "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert len(json.loads(target.read_text())) == 3
    # a directory, or a path in a missing directory, is a config error
    for bad in (tmp_path, tmp_path / "missing" / "out.json"):
        code, out = run(capsys, "roots", "--quiver", A2, "--out", str(bad))
        assert code == 2, bad
        assert out == ""


def test_byte_identical_repeat(capsys):
    for argv in [
        ("roots", "--quiver", D4, "--format", "json"),
        ("qchar", "--quiver", A2, "--beta", "1,1", "--route", "all", "--format", "json"),
        ("cluster", "--quiver", A2, "--list", "--format", "json"),
        ("complex", "--quiver", A2, "--beta", "1,1", "--emit", "json"),
    ]:
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2
