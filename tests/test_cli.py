"""Command-line interface: commands, formats, exit codes."""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import barbellw3.cli as cli
import barbellw3.solver as solver
from barbellw3.cli import main
from barbellw3.patterns import parse_pattern
from barbellw3.verify import Check, Report, verify_all

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "overall", "parameters", "checks"],
    "properties": {
        "suite": {"type": "string"},
        "overall": {"enum": ["pass", "fail"]},
        "parameters": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "claim", "method", "status", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "claim": {"type": "string"},
                    "method": {
                        "enum": [
                            "exact",
                            "exhaustive-bounded",
                            "randomized",
                            "structural-complete",
                        ]
                    },
                    "status": {"enum": ["pass", "fail"]},
                    "details": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exit_call:
        code = exit_call.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "t^2 u u^-1 t^-2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "eval", "t_1 u_1^2 u_1")
    assert code == 0 and out.strip() == "t_1 u_1^3"


def test_eval_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "t u_1")
    assert code == 2 and "mixes" in err
    code, _, err = run_cli(capsys, "eval", "t^0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "eval", "v")
    assert code == 2


def test_hexagon_command(capsys):
    code, out, _ = run_cli(capsys, "hexagon", "t", "u")
    assert code == 0
    assert out.strip() == "t_1 u_3 + u_1^-1 t_3^-1 - t_1^-1 u_3 t_3^-1 - t_1 u_1^-1 t_3"


def test_tpoly_command(capsys):
    code, out, _ = run_cli(capsys, "tpoly", "1", "t", "u")
    assert code == 0
    assert out.strip() == "- t_1^-1 u_3^-1 - u_1^-1 t_3^-1 + t_1 u_3^-1 t_3 + u_1^-1 t_1 t_3"
    code, _, err = run_cli(capsys, "tpoly", "2", "t", "u")
    assert code == 2
    code, _, err = run_cli(capsys, "tpoly", "1", "1", "u")
    assert code == 2 and "nontrivial" in err


def test_target_matches_tpoly(capsys):
    _, direct, _ = run_cli(capsys, "tpoly", "4", "t", "t u^2 t^-1")
    code, target, _ = run_cli(capsys, "target", "d1", "--k", "2")
    assert code == 0 and target == direct
    code, d2, _ = run_cli(capsys, "target", "d2", "--k", "2")
    assert code == 0 and len(d2.strip()) > len(target.strip())
    code, out, err = run_cli(capsys, "target", "d3", "--k", "1")
    assert code == 2 and out == ""
    # Newer Python versions print the choices without quotes.
    assert re.search(r"target: error: argument disk: invalid choice: 'd3' "
                     r"\(choose from '?d1'?, '?d2'?\)\n$", err)


def test_psi_on_expression(capsys):
    code, out, _ = run_cli(capsys, "psi", "--k", "2", "t_1^-1 t_3 u_3^-2 t_3^-2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "psi", "--k", "2", "t_1^2 u_1^2 t_1^-1 t_3")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run_cli(capsys, "psi", "--k", "1", "t_1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "psi", "--k", "1", "1")
    assert code == 0 and out.strip() == "0"
    code, out, err = run_cli(capsys, "psi", "--k", "1", "t")
    assert code == 2 and out == ""
    assert err.strip() == "error: letter 't' is not in alphabet QUAD (at position 0)"


def test_psi_on_file(capsys, tmp_path):
    from barbellw3.barbell import Disk, w3_target

    element = w3_target(Disk.D2, 3)
    path = tmp_path / "element.json"
    path.write_text(json.dumps(element.to_json_dict()))
    code, out, _ = run_cli(capsys, "psi", "--k", "3", "--in", str(path))
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "psi", "--k", "4", "--in", str(path))
    assert code == 0 and out.strip() == "0"


def test_psi_on_malformed_file_exits_2(capsys, tmp_path):
    from test_ring import MALFORMED_ELEMENT_JSON

    path = tmp_path / "element.json"
    for document in MALFORMED_ELEMENT_JSON + [
        {"alphabet": "QUAD", "terms": [{"word": "t_1", "coeff": True}]}
    ]:
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "psi", "--k", "1", "--in", str(path))
        assert (code, out) == (2, "")
        assert "bad element JSON" in err


def test_psi_requires_exactly_one_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "psi", "--k", "1")
    assert code == 2
    path = tmp_path / "x.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "psi", "--k", "1", "--in", str(path), "t_1")
    assert code == 2 and "exactly one" in err


def test_table_markdown(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("|") and "monomial term M(a, c)" in lines[0]
    assert "m_1(1)" in lines[0] and "m_2(1)" in lines[0]
    assert len([line for line in lines if line.startswith("|")]) == 21 + 2
    assert "a_1 c_3^-1 a_3" in out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 21
    first = rows[0]
    assert sorted(first) == ["appears_in", "m1_solution", "m2_solution", "pattern"]
    assert first["pattern"] == "a_1 c_3^-1 a_3"
    assert first["appears_in"] == [1, 3, 4, 6]
    assert first["m1_solution"] == {"a": "t^-1", "c": "t u^2 t^-1"}


def test_a_shape_division_cannot_fix_makes_table_exit_1(capsys, monkeypatch):
    # The solver's refusal, a ValueError (exit 2), reaches the CLI as the
    # table's TableError (exit 1).
    planted, shapes = parse_pattern("a_1 c_1 a_3 c_3"), solver.table_patterns()
    monkeypatch.setattr(solver, "table_patterns", lambda: [(planted, (1,))] + shapes)
    code, out, err = run_cli(capsys, "table", "--k", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: pattern a_1 c_1 a_3 c_3 = m1(2): division does not fix")


@pytest.mark.parametrize(
    "suite, name, check_count",
    [
        ("psi", "psi-targets", 2),
        ("hexagon", "hexagon-vanishing", 3),
        ("span", "span-vanishing", 2),
        ("main", "main-theorem", 11),
    ],
    ids=["psi", "hexagon", "span", "main"],
)
def test_verify_json_schema(capsys, suite, name, check_count):
    code, out, _ = run_cli(
        capsys,
        "verify", suite, "--kmax", "1", "--max-syllables", "1", "--max-exponent", "1",
        "--trials", "20", "--format", "json", "--workers", "1",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["suite"] == name and report["overall"] == "pass"
    assert len(report["checks"]) == check_count


def test_verify_all_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--kmax", "1", "--max-syllables", "1", "--max-exponent", "1",
        "--trials", "20", "--seed", "0", "--format", "json", "--workers", "1",
    )
    assert code == 0
    combined = json.loads(out)
    assert combined["suite"] == "all" and combined["overall"] == "pass"
    assert [suite["suite"] for suite in combined["suites"]] == [
        "psi-targets", "hexagon-vanishing", "span-vanishing", "main-theorem",
    ]
    for suite in combined["suites"]:
        jsonschema.validate(suite, REPORT_SCHEMA)


# The sha256 of a canonical `verify all` report.  A refactor must leave
# these bytes unchanged; a change that means to alter the report updates
# the pin and says so in CHANGES.md.
PINNED_REPORT_SHA256 = "3056b6a6859fe878e78f9cd77e46f6b963c38f0816260a706e92606a9334dcdd"


def test_verify_all_report_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--kmax", "12", "--max-syllables", "1", "--max-exponent", "1",
        "--trials", "50", "--seed", "0", "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORT_SHA256


# The same at kmax 100, where the targets and psi matrices reach large k.
PINNED_DEEP_K_REPORT_SHA256 = "ed5517d763c3d789af538bf580d72842cfb97671b8e3161599bc64650fe7680b"


def test_deep_k_report_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--kmax", "100", "--max-syllables", "1", "--max-exponent", "1",
        "--trials", "0", "--seed", "0", "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEEP_K_REPORT_SHA256


# The same for the benchmark's sweep-serial report, at (2, 3), at one
# worker and split over two.
PINNED_SWEEP_REPORT_SHA256 = "120da6a6d170bec214ab90b24fd3d0b0ff55705dbdd8c1196b1f056a6087e509"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_serial_report_bytes_are_pinned(capsys, workers):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--kmax", "10", "--max-syllables", "2", "--max-exponent", "3",
        "--trials", "2000", "--seed", "0", "--workers", workers, "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_REPORT_SHA256


# The same for the standalone sweep suites at (3, 3), each at one worker
# and split over two.
PINNED_SWEEP_SUITE_SHA256 = {
    "span": "421fc373620076fe2d1e5e8f426d2de22533d90f9c74b4b8cd96edc01ae6843a",
    "hexagon": "dfb8b7bd855e3308cc4d9de55f7bf3806906a6e126eb908aa46320ba666f4941",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("suite", list(PINNED_SWEEP_SUITE_SHA256))
def test_sweep_suite_report_bytes_are_pinned(capsys, suite, workers):
    code, out, _ = run_cli(
        capsys,
        "verify", suite, "--kmax", "10", "--max-syllables", "3", "--max-exponent", "3",
        "--workers", workers, "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SUITE_SHA256[suite]


# The same for outputs built from the admissible pairs, the solution
# table and the hexagon case analysis.
PINNED_OUTPUT_SHA256 = {
    ("span-dump", "--max-syllables", "2", "--max-exponent", "1"):
        "b2db8362e3b3dde36cd858ace8b6d009aa49f7efaf51690149c641a34c85ad65",
    ("verify", "main", "--kmax", "5", "--max-syllables", "2", "--max-exponent", "2",
     "--workers", "1", "--format", "json"):
        "f8cf5ad5a5a7d068e470f5eb511eee57d77fcdea84f440acb4b9e8331d415ce2",
    ("table", "--k", "3", "--format", "json"):
        "1a821366bcedd3129f92e0034b2fdac17cae55e707fa527674ef159c029b2acc",
}


@pytest.mark.parametrize("args", list(PINNED_OUTPUT_SHA256), ids=lambda args: args[0])
def test_output_bytes_are_pinned(capsys, args):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUT_SHA256[args]


def test_verify_markdown(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "span", "--kmax", "1", "--max-syllables", "1", "--max-exponent", "1",
        "--workers", "1",
    )
    assert code == 0
    assert "span-vanishing" in out and "| check |" in out and "pass" in out


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "psi", "--kmax", "0")
    assert code == 2 and "at least 1" in err
    code, _, _ = run_cli(capsys, "verify", "everything")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "psi", "--workers", "-2")
    assert code == 2


def test_span_dump(capsys):
    code, out, _ = run_cli(
        capsys, "span-dump", "--max-syllables", "1", "--max-exponent", "1",
        "--kinds", "1,4",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2 * 8
    for record in records:
        assert sorted(record) == ["a", "c", "i", "value"]
        assert record["i"] in (1, 4)
    for kinds, message in (
        ("1,5", "argument --kinds: kinds must be a nonempty subset of (1, 3, 4, 6)"),
        ("x", "argument --kinds: cannot read kinds 'x'"),
        (",", "argument --kinds: kinds must be a nonempty subset of (1, 3, 4, 6)"),
    ):
        code, _, err = run_cli(capsys, "span-dump", "--max-syllables", "1",
                               "--max-exponent", "1", "--kinds", kinds)
        assert code == 2 and err.endswith(f"span-dump: error: {message}\n")


def test_help_and_missing_command(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "barbellw3" in out
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "barbellw3", "eval", "t u u^-1"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0 and result.stdout.strip() == "t"


def test_a_closed_stdout_exits_141_without_a_traceback():
    # The dump is far larger than a pipe holds, so the writer meets the
    # closed pipe; exit 1 would read as a failed check.
    process = subprocess.Popen(
        [sys.executable, "-m", "barbellw3", "span-dump",
         "--max-syllables", "3", "--max-exponent", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(process.stdout.read(1)) == 1
    process.stdout.close()
    _, err = process.communicate(timeout=60)
    assert process.returncode == 141 and err == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_closing_stdout_mid_report_gets_141(unbuffered):
    # Both reports are more than a pipe holds, so the writer meets the
    # closed pipe part way through: the json one, 372 KB, part way
    # through the document, and the markdown main-theorem report, 66 KB,
    # part way through its one write.  An unbuffered stdout's text layer
    # drops the rest of a write the pipe took only part of, which would
    # end the run with exit 0.  The reader takes one byte, as head -c 1
    # does: a buffered read takes up to 8 KB, room for the last 1 KB of
    # the markdown report in a 64 KB pipe.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    bounds = ["--kmax", "100", "--max-syllables", "1", "--max-exponent", "1", "--workers", "1"]
    for args in (["all", *bounds, "--trials", "0", "--format", "json"], ["main", *bounds]):
        process = subprocess.Popen(
            [sys.executable, "-m", "barbellw3", "verify", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
        )
        assert len(process.stdout.read(1)) == 1
        process.stdout.close()
        _, err = process.communicate(timeout=60)
        assert (args[0], process.returncode, err) == (args[0], 141, b"")


def test_console_script_target_is_launch():
    # The installed barbellw3 script calls this target; tests run the
    # package from source, so they read the target instead.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(cli.__file__).resolve().parents[2] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["barbellw3"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.launch


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


def test_launch_freezes_the_heap_before_main():
    probe = (
        "import gc, sys\n"
        "import barbellw3.cli as cli\n"
        "print(gc.get_freeze_count())\n"
        "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
        "sys.exit(cli.launch())\n"
    )
    result = run_python(probe)
    assert result.returncode == 0, result.stderr
    before, inside = map(int, result.stdout.split())
    assert before == 0 and inside > 0


def test_an_unbuffered_stdout_writes_the_whole_report_through_short_writes(capsys, tmp_path):
    # A raw stdout that takes at most 7 bytes a write, as a pipe may take
    # part of one: the unbuffered text layer would drop the rest of each
    # write and still exit 0.
    path = tmp_path / "report.json"
    probe = (
        "import io, os, sys\n"
        "import barbellw3.cli as cli\n"
        "class Short(io.RawIOBase):\n"
        "    def __init__(self, fd): self.fd = fd\n"
        "    def writable(self): return True\n"
        "    def fileno(self): return self.fd\n"
        "    def write(self, data): return os.write(self.fd, bytes(data[:7]))\n"
        f"fd = os.open({str(path)!r}, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n"
        "sys.stdout = io.TextIOWrapper(Short(fd), write_through=True)\n"
        "sys.argv = ['barbellw3', 'verify', 'psi', '--kmax', '3', '--format', 'json']\n"
        "sys.exit(cli.launch())\n"
    )
    result = run_python(probe)
    assert result.returncode == 0, result.stderr
    code, out, _ = run_cli(capsys, "verify", "psi", "--kmax", "3", "--format", "json")
    assert code == 0
    assert path.read_text() == out


def test_a_serial_verify_all_never_imports_json():
    # -S: no site hook may import json before the package runs.
    probe = (
        "import sys\n"
        "import barbellw3.cli as cli\n"
        "status = cli.main(['verify', 'all', '--kmax', '2', '--max-syllables', '1',\n"
        "                   '--max-exponent', '1', '--trials', '20', '--workers', '1',\n"
        "                   '--format', 'json'])\n"
        "print('json' in sys.modules, status, file=sys.stderr)\n"
    )
    result = run_python(probe, "-S")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith('{\n  "overall": "pass"')
    assert result.stderr == "False 0\n"


def test_main_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    code, out, _ = run_cli(capsys, "eval", "t u u^-1")
    assert (code, out) == (0, "t\n")
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("frozen", [False, True], ids=["run", "frozen"])
def test_a_leak_the_run_makes_is_still_reported_at_exit(frozen):
    # An open file in a reference cycle is closed, with a ResourceWarning,
    # only by the collection at shutdown, which skips frozen objects: the
    # run's own objects must stay outside the frozen heap.
    leaky = (
        "import gc, os, sys\n"
        "import barbellw3.cli as cli\n"
        "def leaky():\n"
        "    cycle = {'file': open(os.devnull, 'rb')}\n"
        "    cycle['self'] = cycle\n"
        f"    {'gc.freeze()' if frozen else 'pass'}\n"
        "    return 0\n"
        "cli.main = leaky\n"
        "sys.exit(cli.launch())\n"
    )
    result = run_python(leaky, "-X", "dev", "-W", "error")
    assert result.returncode == 0
    reported = "ResourceWarning: unclosed file" in result.stderr
    # The frozen case is the control: freezing the cycle hides the leak.
    assert reported is not frozen, result.stderr


def test_verify_exit_code_reflects_failure(capsys, monkeypatch):
    import barbellw3.solver as solver

    text, appears_in, m1_row, m2_row = solver.REFERENCE_TABLE_ROWS[0]
    monkeypatch.setattr(
        solver,
        "REFERENCE_TABLE_ROWS",
        ((text, (1,), m1_row, m2_row),) + tuple(solver.REFERENCE_TABLE_ROWS[1:]),
    )
    code, out, _ = run_cli(
        capsys,
        "verify", "span", "--kmax", "1", "--max-syllables", "1", "--max-exponent", "1",
        "--workers", "1", "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_verify_defaults_to_the_affinity_set(capsys, monkeypatch):
    seen = []

    def fake_suite(**kwargs):
        seen.append(kwargs["workers"])
        return Report("hexagon-vanishing", {})

    monkeypatch.setattr(cli, "verify_hexagon_vanishing", fake_suite)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    code, _, _ = run_cli(capsys, "verify", "hexagon")
    assert code == 0 and seen == [3]
    code, _, _ = run_cli(capsys, "verify", "hexagon", "--workers", "2")
    assert code == 0 and seen == [3, 2]
    # platforms without affinity masks fall back to the processor count
    monkeypatch.delattr(os, "sched_getaffinity")
    code, _, _ = run_cli(capsys, "verify", "hexagon")
    assert code == 0 and seen == [3, 2, 64]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, _, _ = run_cli(capsys, "verify", "hexagon")
    assert code == 0 and seen == [3, 2, 64, 1]


# emit and the table writer lay JSON out themselves; their text must be
# json.dumps(value, indent=2, sort_keys=True) byte for byte.
def dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def json_text(value) -> str:
    """The text ``cli._write_json`` writes, as one string."""
    stream = io.StringIO()
    cli._write_json(value, stream)
    return stream.getvalue()


@pytest.mark.parametrize("suite", ["all", "psi", "hexagon", "span", "main"])
def test_verify_json_is_the_json_dumps_layout(capsys, suite):
    code, out, _ = run_cli(
        capsys,
        "verify", suite, "--kmax", "3", "--max-syllables", "2", "--max-exponent", "1",
        "--trials", "20", "--seed", "1", "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert out == dumped(json.loads(out))


def test_table_json_is_the_json_dumps_layout(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "3", "--format", "json")
    assert code == 0
    assert out == dumped(json.loads(out))
    rows = cli.regenerate_table(3)
    assert out == json_text(cli._table_documents(rows))


def test_emit_matches_json_dumps_on_awkward_reports():
    odd = 'quote " backslash \\ newline \n tab \t control \x01 accents é ü and ✓ 😀'
    failing = Report(
        "odd \"suite\"",
        {"kmax": 3, "label": odd, "flag": True, "none": None, "nested": {"b": [1, "x"], "a": []}},
        [
            Check("first", odd, "exact", "fail", odd),
            Check("second \\", "claim", "randomized", "pass", ""),
        ],
    )
    empty = Report("empty", {}, [])
    for report in (failing, empty):
        assert cli.emit(report, "json") == dumped(report.to_json_dict())
    document = {"suite": "all", "overall": "fail",
                "suites": [failing.to_json_dict(), empty.to_json_dict()]}
    assert cli.emit([failing, empty], "json") == dumped(document)
    assert cli.emit([], "json") == dumped({"suite": "all", "overall": "pass", "suites": []})


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        "",
        0,
        [[], {}, [{}], (1, 2)],
        {"claim": "c", "details": "d", "method": "m", "name": "n", "status": "s", "x": 1},
        {"claim": 1, "details": "d", "method": "m", "name": "n", "status": "s"},
    ],
)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == dumped(value)


@pytest.mark.parametrize(
    "value",
    [
        {"a": 1.5},
        {2: "int keys"},
    ],
)
def test_json_text_refuses_what_no_document_holds(value):
    with pytest.raises(TypeError):
        json_text(value)


class Recorder:
    """A text stream that keeps the length of each write and a digest."""

    def __init__(self):
        self.sizes: list[int] = []
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        self.digest.update(text.encode())
        return len(text)


def test_the_deep_k_document_is_written_as_it_is_laid_out():
    reports = verify_all(kmax=100, max_syllables=1, max_exponent=1,
                         random_trials=0, seed=0, workers=1)
    document = {"suite": "all", "overall": "pass",
                "suites": [report.to_json_dict() for report in reports]}
    sink = Recorder()
    tracemalloc.start()
    try:
        cli._write_json(document, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == PINNED_DEEP_K_REPORT_SHA256
    # The document is 372 KB; laid out whole, its pieces take 1.4 MB.
    assert peak < 256 * 1024
    assert len(sink.sizes) > 1 and max(sink.sizes) <= 64 * 1024


# The markdown of the kmax-100 `verify all` report.
PINNED_DEEP_K_MARKDOWN_SHA256 = "2c5288447c2d953eef7a5952316afc682d084aa96dfd90e13ee3bbcc41faece2"


@pytest.mark.parametrize("format, digest, bound_kb", [
    ("json", PINNED_DEEP_K_REPORT_SHA256, 64),
    ("md", PINNED_DEEP_K_MARKDOWN_SHA256, 16),
], ids=["json", "md"])
def test_the_deep_k_reports_are_written_a_check_at_a_time(format, digest, bound_kb):
    reports = verify_all(kmax=100, max_syllables=1, max_exponent=1,
                         random_trials=0, seed=0, workers=1)
    sink = Recorder()
    tracemalloc.start()
    try:
        cli._write_reports(reports, format, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == digest
    # Each check's dict, or its row, is made when the writer reaches it:
    # 45-56 KB in json and 10 KB in md on Python 3.10-3.13, this sink's
    # copies included.  Built for all 1 008 checks first, the json dicts
    # took 226-281 KB, and the md reports, each joined whole, 168-234 KB.
    assert peak < bound_kb * 1024


SUITES = {
    "all": "verify_all",
    "psi": "verify_psi_targets",
    "hexagon": "verify_hexagon_vanishing",
    "span": "verify_span_vanishing",
    "main": "verify_main_theorem",
}


@pytest.mark.parametrize("format", ["md", "json"])
@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_writes_to_stdout_what_emit_renders(monkeypatch, suite, format):
    results = []
    original = getattr(cli, SUITES[suite])
    monkeypatch.setattr(cli, SUITES[suite],
                        lambda **kwargs: results.append(original(**kwargs)) or results[-1])
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["verify", suite, "--kmax", "3", "--max-syllables", "2", "--max-exponent", "2",
                 "--trials", "50", "--seed", "2", "--workers", "1", "--format", format])
    assert code == 0 and len(results) == 1
    text = cli.emit(results[0], format)
    assert sum(stdout.sizes) == len(text)
    assert stdout.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
