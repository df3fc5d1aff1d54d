"""Every `qq` subcommand in every format it accepts, byte for byte.

Each case's stdout is compared with its file under tests/cli_golden/, on
the A2, A4 (mixed orientation) and D4 configs of tests/test_cli.py.  To
accept an intended change of output, rewrite the files with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qhammock.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden"

# name: (config, hammock vertex, root, a forced pivot in its support)
CONFIGS = {
    "a2": ('{"type":"A","rank":2,"arrows":[[1,2]]}', "1,1", "1,1", "1"),
    "a4mixed": ('{"type":"A","rank":4,"arrows":[[1,2],[2,3],[4,3]]}', "2,0", "1,1,1,1", "1"),
    "d4": ('{"type":"D","rank":4,"arrows":[[1,2],[2,3],[2,4]]}', "2,0", "1,2,1,1", "2"),
}


def _cases() -> dict[str, list[str]]:
    cases = {
        "verify-json": ["verify", "--format", "json"],
        "verify-text": ["verify", "--format", "text"],
    }
    for name, (cfg, vertex, beta, pivot) in CONFIGS.items():
        common = ["--quiver", cfg]
        for fmt in ("json", "tsv", "text"):
            cases[f"{name}-roots-{fmt}"] = ["roots", *common, "--format", fmt]
            for route in ("euler", "recursion", "cluster", "all"):
                cases[f"{name}-qchar-{route}-{fmt}"] = [
                    "qchar", *common, "--beta", beta, "--route", route, "--format", fmt,
                ]
            cases[f"{name}-cluster-list-{fmt}"] = ["cluster", *common, "--list", "--format", fmt]
        for fmt in ("tsv", "text", "json", "dot"):
            cases[f"{name}-hammock-{fmt}"] = ["hammock", *common, "--vertex", vertex, "--format", fmt]
        cases[f"{name}-ar-view"] = ["ar-view", *common, "--window=-3,3", "--format", "dot"]
        cases[f"{name}-ar-view-vertex"] = [
            "ar-view", *common, "--window=-3,3", "--vertex", vertex, "--format", "dot",
        ]
        for emit in ("terms", "json", "chi"):
            cases[f"{name}-complex-{emit}"] = ["complex", *common, "--beta", beta, "--emit", emit]
        cases[f"{name}-complex-chi-json"] = [
            "complex", *common, "--beta", beta, "--emit", "chi", "--format", "json",
        ]
        cases[f"{name}-complex-terms-pivot"] = [
            "complex", *common, "--beta", beta, "--pivot", pivot, "--emit", "terms",
        ]
        cases[f"{name}-cluster-beta"] = ["cluster", *common, "--beta", beta]
    return cases


CASES = _cases()


def _stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode()


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_prints_its_golden_bytes(name):
    assert _stdout(CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(_stdout(argv))
