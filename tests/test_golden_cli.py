"""CLI reports compared byte for byte against a stored golden set.

The set covers every ``tests/data`` problem with each subcommand the
benchmark's command corpus gives it (fixed ``--seed 0``, polynomials
without unit multipliers), ``verify`` on ``gamma_4_6_13.json``, and
``build``/``eval``/``expand`` on ``swapped_diffskp.json`` rewritten with a
total-degree cutoff of 0, 1, 2 and 3.

Regenerate the golden file only when a report is meant to change:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import DATA, run_cli, write_problem

GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"

# skp problem files: two polynomials each and the top-row cutoff for delta
SKP_FILES = {
    "remark_diffskp.json": (("X1^2 - X0^3", "X1^4 - 2*X0^3*X1^2 + X0^6 - X0^5*X1"), 3),
    "swapped_diffskp.json": (("X0^2 - X1^3", "(X0 + X1)^5"), 3),
    "example2.json": (("X1^2 - X0^3", "X1^2 - X0 + X0^2*X1"), 3),
    "example1_tail.json": (("X2^2 - X0*X1^3", "X2 + X1^2*X0"), 2),
}
TABLE_FILES = ("bad_increase.json", "empty_rows.json")
REALIZE_FILES = ("gamma_4_6_13.json", "free_pair.json")
CLASSIFY_FILES = ("classify_vii.json",)
NESTED_POLY = "(" * 300 + "X0" + ")" * 300
CUTOFFS = (0, 1, 2, 3)


def corpus_commands():
    """(name, argv) of every command over the files in tests/data."""
    out = []
    for fname, (polys, j) in SKP_FILES.items():
        path = str(DATA / fname)
        out += [
            (f"validate {fname}", ["validate", path]),
            (f"build {fname}", ["build", path]),
            (f"build --minimal {fname}", ["build", "--minimal", path]),
            (f"classify {fname}", ["classify", path]),
        ]
        for p in polys:
            out.append((f"eval {fname} {p}", ["eval", "--skp", path, "--poly", p]))
        p = polys[1]
        out += [
            (f"expand {fname}", ["expand", path, "--poly", p]),
            (f"initial {fname}", ["initial", "--skp", path, "--poly", p]),
            (f"delta {fname}", ["delta", "--skp", path, "--poly", p, "--j", str(j)]),
            (f"normal-form {fname}", ["normal-form", "--skp", path, "--poly", p]),
        ]
    for fname in TABLE_FILES:
        path = str(DATA / fname)
        out += [
            (f"validate {fname}", ["validate", path]),
            (f"build {fname}", ["build", path]),
            (f"build --minimal {fname}", ["build", "--minimal", path]),
            (f"classify {fname}", ["classify", path]),
        ]
    for fname in REALIZE_FILES:
        for mode in ("literal", "corrected"):
            out.append(
                (f"realize {mode} {fname}", ["realize", "--mode", mode, str(DATA / fname)])
            )
    for fname in CLASSIFY_FILES:
        out.append((f"classify {fname}", ["classify", str(DATA / fname)]))
    out.append(
        (
            "eval nested parentheses",
            ["eval", "--skp", str(DATA / "remark_diffskp.json"), "--poly", NESTED_POLY],
        )
    )
    out.append(("verify gamma_4_6_13.json", ["verify", str(DATA / "gamma_4_6_13.json")]))
    return out


def cutoff_commands(tmp_dir):
    """(name, argv) of build/eval/expand on swapped_diffskp at each cutoff."""
    out = []
    for cutoff in CUTOFFS:
        path = write_problem(
            tmp_dir, "swapped_diffskp.json", {"cutoff": cutoff}, f"swapped_cutoff_{cutoff}.json"
        )
        out += [
            (f"build cutoff {cutoff}", ["build", path]),
            (f"eval cutoff {cutoff}", ["eval", "--skp", path, "--poly", "X0^2-X1^3"]),
            (f"expand cutoff {cutoff}", ["expand", path, "--poly", "X0"]),
        ]
    return out


def report_of(argv):
    run = run_cli("--seed", "0", *argv)
    return {"exit": run.code, "report": run.text}


def all_reports(tmp_dir):
    return {
        name: report_of(argv)
        for name, argv in corpus_commands() + cutoff_commands(tmp_dir)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return all_reports(tmp_path_factory.mktemp("cutoffs"))


def test_same_command_set(golden, reports):
    assert sorted(reports) == sorted(golden)


@pytest.mark.parametrize(
    "name",
    [name for name, _ in corpus_commands()]
    + [f"{c} cutoff {k}" for k in CUTOFFS for c in ("build", "eval", "expand")],
)
def test_report_bytes(name, golden, reports):
    assert reports[name] == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = all_reports(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(result)} reports to {GOLDEN}\n")
