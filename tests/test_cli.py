import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from polarlines import cli
from polarlines.analysis import LineSet
from polarlines.cli import main
from polarlines.files import (
    build_report,
    parse_lineset_file,
    parse_pointset_file,
    write_lineset,
    write_pointset,
)
from polarlines.schemetables import tables_for_space
from polarlines.spaces import FormSpec, GeometryError, _fingerprint

from test_spaces import decoded_cache, encoded_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_scheme_tables_json(capsys):
    code, out = run_cli(capsys, "scheme", "tables", "--q", "2", "--e", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 105
    assert doc["multiplicities"] == [1, 14, 20, 14, 56]
    assert doc["P"][0] == ["1", "12", "12", "48", "32"]
    assert doc["Q"][4][1] == "-7/2"


def test_scheme_tables_csv(capsys):
    code, out = run_cli(capsys, "scheme", "tables", "--q", "2", "--e", "0", "--csv")
    assert code == 0
    assert out.startswith("# P\n1,12,12,48,32\n")
    assert "# Q" in out


def test_lp_bound_spot_value(capsys):
    code, out = run_cli(capsys, "lp", "bound", "--q", "2", "--e", "0", "--forbid", "R11,R21")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == "7"
    assert doc["tight"] == ["11"]
    assert doc["certificate"]["bound"] == "7"


def test_lp_bound_half_integer_e(capsys):
    code, out = run_cli(capsys, "lp", "bound", "--q", "4", "--e", "1/2", "--forbid", "R10")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == str((2 * 4 + 1) * (2 * 16 + 1))


def test_space_build_info_and_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out = run_cli(capsys, "space", "build", "--space", "o6plus_q2", "--cache", cache)
    assert code == 0
    doc = json.loads(out)
    assert (doc["points"], doc["lines"], doc["planes"]) == (35, 105, 30)
    code, out = run_cli(capsys, "--cache", cache, "space", "info", "--space", "o6plus_q2")
    assert code == 0
    doc = json.loads(out)
    assert doc["valencies"] == [1, 12, 12, 48, 32]
    assert doc["e"] == "0"


@pytest.mark.parametrize("before", [True, False])
def test_space_build_writes_the_cache_under_either_spelling(tmp_path, monkeypatch, capsys, before):
    monkeypatch.delenv("POLARLINES_CACHE", raising=False)
    cache = str(tmp_path / "cache")
    where, argv = ["--cache", cache], ["space", "build", "--space", "o6plus_q2"]
    code, out = run_cli(capsys, *(where + argv if before else argv + where))
    assert code == 0
    path = json.loads(out)["cache_file"]
    assert path == os.path.join(cache, "O6plus_q2.json")
    assert os.path.exists(path) and os.path.exists(path + ".labels.npy")


def test_construct_hexagon_then_eval(tmp_path, capsys):
    out_file = str(tmp_path / "hexagon.json")
    code, _ = run_cli(capsys, "construct", "hexagon", "--space", "sp6_q2", "-o", out_file)
    assert code == 0
    code, out = run_cli(capsys, "set", "eval", "--space", "sp6_q2", "--file", out_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 63
    assert doc["a"] == ["1", "6", "0", "24", "32"]
    assert doc["regular"]["verdict"] == "regular"
    assert doc["regular"]["eigenspace"] == "20"
    assert doc["pencil_condition"] is True
    assert set(map(int, doc["plane_histogram"])) <= {0, 1, 3}


def test_construct_one_system_and_probe(tmp_path, capsys):
    out_file = str(tmp_path / "one_system.json")
    code, _ = run_cli(capsys, "construct", "one-system", "--space", "sp6_q2", "-o", out_file)
    assert code == 0
    code, out = run_cli(capsys, "set", "eval", "--space", "sp6_q2", "--file", out_file)
    doc = json.loads(out)
    assert doc["a"] == ["1", "0", "0", "0", "8"]
    assert doc["support"] == ["11", "20", "21"]


def test_search_cli(capsys):
    code, out = run_cli(
        capsys, "search", "regular", "--space", "o6plus_q2", "--j", "11", "--size", "15"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] and doc["count"] == 28
    code, out = run_cli(
        capsys,
        "search",
        "probe",
        "--space",
        "o6plus_q2",
        "--support",
        "10",
        "--size",
        "21",
        "--no-prefilter",
    )
    doc = json.loads(out)
    assert doc["status"] == "none"
    code, out = run_cli(capsys, "search", "packing", "--space", "o6plus_q2")
    doc = json.loads(out)
    assert doc["count"] == 7 and doc["complete"]


def test_lineset_file_roundtrip(tmp_path, o6plus2):
    from polarlines.analysis import make_lineset

    path = tmp_path / "set.json"
    write_lineset(o6plus2, make_lineset(o6plus2, [0, 1, 2], name="demo"), path)
    y = parse_lineset_file(path, o6plus2)
    assert y.indices == (0, 1, 2)
    assert y.name == "demo"


def test_a_numpy_lineset_round_trips(tmp_path, o6plus2):
    path = tmp_path / "set.json"
    write_lineset(o6plus2, np.array([3, 1, 2]), path)
    assert json.loads(path.read_text())["lines"] == [1, 2, 3]
    assert parse_lineset_file(path, o6plus2).indices == (1, 2, 3)


def test_a_lineset_its_reader_would_reject_is_not_written(tmp_path, o6plus2, sp62):
    from polarlines.analysis import make_lineset

    path = tmp_path / "set.json"
    # O+(6,2) has 105 lines
    with pytest.raises(ValueError, match="line index out of range"):
        write_lineset(o6plus2, [5, 5, 200], path)
    with pytest.raises(ValueError, match="different space"):
        write_lineset(o6plus2, make_lineset(sp62, [0, 1]), path)
    with pytest.raises(ValueError, match="line indices must be integers"):
        write_lineset(o6plus2, np.array([1.5]), path)
    assert not path.exists()


def test_a_numpy_pointset_round_trips(tmp_path, o6plus2):
    path = tmp_path / "points.json"
    write_pointset(o6plus2, np.array([3, 1, 3]), path, name="three")
    assert json.loads(path.read_text())["points"] == [1, 3]
    assert parse_pointset_file(path, o6plus2) == (1, 3)


def test_a_pointset_with_an_index_out_of_range_is_not_written(tmp_path, o6plus2):
    path = tmp_path / "points.json"
    # O+(6,2) has 35 points
    for points in ([0, 999], [-1, 3]):
        with pytest.raises(ValueError, match="point index out of range"):
            write_pointset(o6plus2, points, path)
    assert not path.exists()


def test_a_pointset_with_a_non_integral_index_is_not_written(tmp_path, o6plus2):
    path = tmp_path / "points.json"
    for points in (np.array([1.5]), [2, 3.0]):
        with pytest.raises(ValueError, match="point indices must be integers"):
            write_pointset(o6plus2, points, path)
    assert not path.exists()


def test_emit_prints_what_json_dump_prints(capsys, o6plus2):
    doc = build_report(o6plus2, tables_for_space(o6plus2), [0, 1, 2])
    want = io.StringIO()
    json.dump(doc, want, indent=2, sort_keys=True)
    cli._emit(doc)
    assert capsys.readouterr().out == want.getvalue() + "\n"


def test_lineset_bases_resolution(tmp_path, o6plus2):
    from polarlines.constructions import plane_lines

    y = plane_lines(o6plus2, 0)
    path = tmp_path / "plane.json"
    write_lineset(o6plus2, y, path)
    doc = json.loads(path.read_text())
    # no lines, only the bases: force resolution through the canonical bases
    doc["bases"] = o6plus2.line_basis_arr[doc.pop("lines")].tolist()
    path.write_text(json.dumps(doc))
    again = parse_lineset_file(path, o6plus2)
    assert again.indices == y.indices


def test_lineset_fingerprint_mismatch(tmp_path, o6plus2, sp62):
    from polarlines.analysis import make_lineset

    path = tmp_path / "set.json"
    write_lineset(sp62, make_lineset(sp62, [0, 1]), path)
    with pytest.raises(ValueError, match="space"):
        parse_lineset_file(path, o6plus2)


def test_construct_ovoid_and_pencil_union_via_point_file(tmp_path, capsys):
    points_file = str(tmp_path / "ovoid.json")
    code, out = run_cli(
        capsys, "construct", "ovoid", "--space", "o6plus_q2", "-o", points_file
    )
    assert code == 0
    assert len(json.loads(out)["points"]) == 5
    union_file = str(tmp_path / "union.json")
    code, _ = run_cli(
        capsys,
        "construct",
        "pencil-union",
        "--space",
        "o6plus_q2",
        "--point-file",
        points_file,
        "-o",
        union_file,
    )
    assert code == 0
    code, out = run_cli(capsys, "set", "eval", "--space", "o6plus_q2", "--file", union_file)
    doc = json.loads(out)
    assert doc["size"] == 45 and doc["regular"]["eigenspace"] == "11"


def test_search_movoid_cli(tmp_path, capsys):
    out_file = str(tmp_path / "all_points.json")
    code, out = run_cli(
        capsys,
        "search",
        "movoid",
        "--space",
        "o6plus_q2",
        "--m",
        "3",
        "-o",
        out_file,
    )
    assert code == 0
    doc = json.loads(out)
    # the full point set of the O(5,2) section is the unique 3-ovoid candidate
    assert doc["found"] and len(doc["points"]) == 15


def test_search_movoid_finds_the_empty_0_ovoid(tmp_path, capsys, sp62):
    out_file = str(tmp_path / "no_points.json")
    argv = ["search", "movoid", "--space", "sp6_q2", "--m", "0", "-o", out_file]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["points"] == [] and doc["file"] == out_file
    assert parse_pointset_file(out_file, sp62) == ()


def test_search_probe_prints_the_empty_witness(capsys):
    argv = ["search", "probe", "--space", "o6plus_q2", "--support", "10,20", "--size", "0"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "witness" and doc["witness"] == []
    # a probe that finds no set still prints no witness
    argv = ["search", "probe", "--space", "o6plus_q2", "--support", "10", "--size", "21"]
    code, out = run_cli(capsys, *argv, "--no-prefilter")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "none" and doc["witness"] is None


@pytest.mark.parametrize("support", ["10,R10,r10", "10,R10"])
def test_search_probe_prints_each_tag_once(capsys, support):
    """R10, r10 and 10 name one eigenspace, so the probe prints it once, as it searched it."""
    argv = ["search", "probe", "--space", "o6plus_q2", "--support", support, "--size", "21"]
    code, out = run_cli(capsys, *argv, "--no-prefilter")
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == ["10"]
    assert (doc["status"], doc["nodes"]) == ("none", 31)


@pytest.mark.parametrize("tag", ["R10", "r10", "10"])
def test_lp_bound_takes_a_tag_with_one_optional_r(capsys, tag):
    code, out = run_cli(capsys, "lp", "bound", "--q", "2", "--e", "1", "--forbid", tag)
    assert code == 0
    assert json.loads(out)["forbid"] == ["10"]


@pytest.mark.parametrize(
    "argv,given",
    [
        (["lp", "bound", "--q", "2", "--e", "1", "--forbid", "RR11"], "RR11"),
        (
            ["search", "probe", "--space", "o6plus_q2", "--support", "RR10,rrr20", "--size", "7"],
            "RR10",
        ),
    ],
    ids=["lp", "probe"],
)
def test_a_tag_with_more_than_one_r_is_a_json_error(capsys, argv, given):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"} and repr(given) in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "tables", "--q", "2", "--e", "1/0"],
        ["lp", "bound", "--q", "2", "--e", "0/0", "--forbid", "R11"],
    ],
    ids=["scheme", "lp"],
)
def test_an_e_with_a_zero_denominator_is_a_json_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"error"} and doc["error"].startswith("e must be one of 0, 1/2, 1, 3/2, 2")


@pytest.mark.parametrize("size", ["-7", "106"])
@pytest.mark.parametrize("prefilter", [[], ["--no-prefilter"]], ids=["prefilter", "no_prefilter"])
def test_search_probe_rejects_a_size_outside_the_space(capsys, size, prefilter):
    argv = ["search", "probe", "--space", "o6plus_q2", "--support", "10,20", "--size", size]
    code, out = run_cli(capsys, *argv, *prefilter)
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["witness"], doc["nodes"]) == ("none", None, 0)
    assert doc["note"] == "size rejected: size outside [0, 105]"


def test_cli_error_is_machine_readable(capsys):
    code, out = run_cli(capsys, "space", "info", "--space", "nonsense")
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc


@pytest.mark.parametrize(
    "exc",
    [GeometryError("relation table is not symmetric"), RuntimeError("P row sums wrong")],
)
def test_internal_failure_is_a_json_error_with_exit_code_3(monkeypatch, capsys, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_space_info", fail)
    code, out = run_cli(capsys, "space", "info", "--space", "o6plus_q2")
    assert code == 3
    assert json.loads(out) == {"error": str(exc)}


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_1_and_writes_nothing_more(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["scheme", "tables", "--q", "2", "--e", "1"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes anything
    # stdout buffered, as it is on a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "polarlines.cli", "scheme", "tables", "--q", "2", "--e", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def _run_in_400_mib(argv):
    """The CLI in a child process under a 400 MiB address-space limit.

    The limit is set in the child alone, and leaves room for import numpy.
    """
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "polarlines.cli", *argv],
        capture_output=True,
        env=env,
        preexec_fn=limit,
        timeout=120,
    )


def test_a_u7_q4_build_fits_in_400_mib():
    """U(7,4), 89,397 lines past the default cap, builds under the 400 MiB limit."""
    done = _run_in_400_mib(["space", "build", "--space", "u7_q4", "--max-lines", "100000"])
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["fingerprint"] == "d1bfd35f15590521"


def test_running_out_of_memory_is_a_json_error_with_exit_code_1(tmp_path):
    """A cached U(7,4) build under the 400 MiB limit, whose labels sidecar needs a 7.44 GiB table.

    The failed write leaves nothing in the cache.
    """
    argv = ["space", "build", "--space", "u7_q4", "--max-lines", "100000", "--cache", str(tmp_path)]
    done = _run_in_400_mib(argv)
    assert (done.returncode, done.stderr) == (1, b"")
    doc = json.loads(done.stdout)
    assert set(doc) == {"error"} and doc["error"].startswith("out of memory")
    assert os.listdir(tmp_path) == []


def test_usage_error_keeps_exit_code_2(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["space", "info"])
    assert stop.value.code == 2


def test_main_calls_in_one_process_share_nothing_but_the_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("POLARLINES_CACHE", raising=False)
    cache = str(tmp_path / "cache")
    calls = [
        ["space", "info"],
        ["space", "build", "--space", "o6plus_q2", "--cache", cache],
        ["space", "info", "--space", "o6plus_q2"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        out = capsys.readouterr()
        return code, out.out, out.err

    loads = []
    monkeypatch.setattr(cli, "load_space", loads.append)
    assert cli.build_parser() is cli.build_parser()
    together = [run(argv) for argv in calls]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert "required: --space" in together[0][2]
    assert json.loads(together[1][1])["cache_file"] == os.path.join(cache, "O6plus_q2.json")
    # the build's --cache does not carry over: info builds the space and loads nothing
    assert loads == []
    assert sorted(os.listdir(cache)) == ["O6plus_q2.json", "O6plus_q2.json.labels.npy"]
    assert json.loads(together[2][1])["fingerprint"] == json.loads(together[1][1])["fingerprint"]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_below_one_is_a_usage_error(capsys, limit):
    argv = ["search", "regular", "--space", "o6plus_q2", "--j", "11", "--size", "15"]
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--limit", limit])
    assert stop.value.code == 2
    assert "--limit: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "regular", "--space", "o6plus_q2", "--j", "11", "--size", "15"],
        ["search", "probe", "--space", "o6plus_q2", "--support", "10", "--size", "21"],
        ["search", "spread", "--space", "sp6_q2"],
        ["search", "movoid", "--space", "o7_q3", "--m", "2"],
        ["search", "packing", "--space", "o6plus_q2"],
        ["construct", "one-system", "--space", "sp6_q2"],
    ],
    ids=lambda argv: argv[1] if argv[0] == "search" else argv[0],
)
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_a_usage_error(capsys, argv, budget):
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--budget", budget])
    assert stop.value.code == 2
    assert "--budget: must be at least 1" in capsys.readouterr().err


def test_a_search_deeper_than_the_recursion_limit_exits_0(monkeypatch, capsys, spaces):
    """V10/378 on U(6,4) branches deeper than Python's default recursion limit of 1000."""
    monkeypatch.setattr(cli, "build_space", spaces.get)
    argv = ["search", "regular", "--space", "u6_q4", "--j", "10", "--size", "378"]
    code, out = run_cli(capsys, *argv, "--budget", "3000", "--limit", "1")
    doc = json.loads(out)
    assert code == 0
    assert (doc["sets"], doc["complete"], doc["nodes"]) == ([], False, 3001)
    assert doc["note"] == "node budget exhausted"


def test_cli_determinism(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    _, out1 = run_cli(capsys, "--cache", cache, "scheme", "verify", "--space", "o6plus_q2")
    _, out2 = run_cli(capsys, "--cache", cache, "scheme", "verify", "--space", "o6plus_q2")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["ok"] is True


@pytest.mark.parametrize(
    "what,index", [("plane", "-1"), ("pencil", "99999"), ("pencil-perp-avoiding", "-1")]
)
def test_construct_index_out_of_range_is_a_json_error(tmp_path, capsys, what, index):
    out_file = str(tmp_path / "set.json")
    argv = ["construct", what, "--space", "o6plus_q2", "--index", index, "-o", out_file]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"} and "out of range" in doc["error"]
    assert not os.path.exists(out_file)


@pytest.mark.parametrize("vectors", ["0", "-3"])
def test_scheme_verify_without_vectors_is_a_json_error(capsys, vectors):
    code, out = run_cli(capsys, "scheme", "verify", "--space", "o6plus_q2", "--vectors", vectors)
    assert code == 1
    assert set(json.loads(out)) == {"error"}


def _with_pair(labels, a, b, label):
    labels = labels.copy()
    labels[a, b] = labels[b, a] = label
    return labels


def _moved_spot_checked_pair(labels):
    """labels with the first of the 32 seeded pairs a load once spot-checked moved."""
    rng = random.Random(len(labels))
    a, b = rng.randrange(len(labels)), rng.randrange(len(labels))
    return _with_pair(labels, a, b, (labels[a, b] + 1) % 5)


# each corruption of the O+(6,2) sidecar, from the space and the sidecar's bytes:
# an array that np.save writes, or the bytes themselves
_SIDECAR_CORRUPTIONS = {
    "wrong_shape": lambda space, whole: np.zeros((3, 3), dtype=np.uint8),
    "reversed": lambda space, whole: space.labels[::-1],
    "wrong_dtype": lambda space, whole: space.labels.astype(np.int64),
    "empty": lambda space, whole: b"",
    "garbage": lambda space, whole: b"no npy",
    "truncated": lambda space, whole: whole[:-100],
    "label_7": lambda space, whole: _with_pair(space.labels, 0, 1, 7),
    # plane 0's first two lines are in R10, and 4 is a legal label
    "legal_but_wrong": lambda space, whole: _with_pair(
        space.labels, *space.plane_lines_arr[0, :2], 4
    ),
    "spot_checked": lambda space, whole: _moved_spot_checked_pair(space.labels),
}

_SIDECAR_COMMANDS = {
    "space_info": ["space", "info"],
    "scheme_verify": ["scheme", "verify"],
    "search_regular": ["search", "regular", "--j", "11", "--size", "15"],
    "projector_probe": ["search", "probe", "--support", "11,20", "--size", "35", "--budget", "2000"],
    "set_eval": ["set", "eval"],
}


@pytest.mark.parametrize("command", sorted(_SIDECAR_COMMANDS))
@pytest.mark.parametrize("corruption", sorted(_SIDECAR_CORRUPTIONS))
def test_a_labels_sidecar_changes_no_output(tmp_path, capsys, o6plus2, corruption, command):
    # a load reads no sidecar: every space builds its table from the incidence
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "--cache", cache, "space", "build", "--space", "o6plus_q2")[0] == 0
    argv = [*_SIDECAR_COMMANDS[command], "--space", "o6plus_q2"]
    if command == "set_eval":
        set_file = str(tmp_path / "plane.json")
        plane = ["construct", "plane", "--space", "o6plus_q2", "--index", "0", "-o", set_file]
        assert run_cli(capsys, "--cache", cache, *plane)[0] == 0
        argv += ["--file", set_file]
    clean = run_cli(capsys, "--cache", cache, *argv)
    assert clean[0] == 0
    sidecar = cli._space_path(cache, "O6plus", 2) + ".labels.npy"
    with open(sidecar, "rb") as fh:
        bad = _SIDECAR_CORRUPTIONS[corruption](o6plus2, fh.read())
    if isinstance(bad, bytes):
        with open(sidecar, "wb") as fh:
            fh.write(bad)
    else:
        np.save(sidecar, np.ascontiguousarray(bad))
    assert run_cli(capsys, "--cache", cache, *argv) == clean


def _wrong_label_cache(tmp_path, capsys, space):
    """A cache of O+(6,2) whose sidecar holds one legal but wrong label.

    Plane 0's first two lines are in R10 (label 1); they get a 4.
    """
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "--cache", cache, "space", "build", "--space", "o6plus_q2")[0] == 0
    sidecar = cli._space_path(cache, "O6plus", 2) + ".labels.npy"
    labels = np.load(sidecar)
    a, b = space.plane_lines_arr[0, :2]
    assert labels[a, b] == labels[b, a] == 1
    labels[a, b] = labels[b, a] = 4
    np.save(sidecar, labels)
    assert run_cli(capsys, "--cache", cache, "space", "info", "--space", "o6plus_q2")[0] == 0
    return cache


def test_set_eval_reads_the_incidence_not_a_wrong_label(tmp_path, capsys, o6plus2):
    cache = _wrong_label_cache(tmp_path, capsys, o6plus2)
    set_file = str(tmp_path / "plane.json")
    argv = ["construct", "plane", "--space", "o6plus_q2", "--index", "0", "-o", set_file]
    assert run_cli(capsys, "--cache", cache, *argv)[0] == 0
    argv = ["set", "eval", "--space", "o6plus_q2", "--file", set_file]
    code, out = run_cli(capsys, "--cache", cache, *argv)
    assert code == 0
    assert json.loads(out)["a"] == ["1", "6", "0", "0", "0"]


def test_report_rationals_are_exact_strings(o6plus2):
    tables = tables_for_space(o6plus2)
    from polarlines.analysis import make_lineset
    from polarlines.constructions import point_pencil

    rep = build_report(o6plus2, tables, point_pencil(o6plus2, 0))
    assert rep["aQ"] == ["9", "56", "40", "0", "0"]
    # a pair of concurrent coplanar lines has fractional projections
    pair = make_lineset(o6plus2, o6plus2.plane_lines[0][:2])
    rep = build_report(o6plus2, tables, pair)
    assert rep["a"] == ["1", "1", "0", "0", "0"]
    assert rep["aQ"][1] == "133/6"
    assert all("." not in s for s in rep["a"] + rep["aQ"])


def test_report_rejects_a_line_set_of_another_space(o6plus2, sp62):
    from polarlines.analysis import make_lineset

    with pytest.raises(ValueError, match="line set belongs to a different space"):
        build_report(o6plus2, tables_for_space(o6plus2), make_lineset(sp62, range(7)))


_HEADER = {"version": 1, "space": {"family": "O6plus", "p": 2, "h": 1}}


@pytest.mark.parametrize(
    "doc",
    [
        dict(_HEADER),  # neither lines nor bases
        [0, 1, 2],  # a top-level list
        dict(_HEADER, lines=7),
        dict(_HEADER, lines=[[0, 1]]),
        dict(_HEADER, bases=[[[1, 0, 0, 0, 0, 9], [0, 1, 0, 0, 0, 0]]]),
        dict(_HEADER, bases=[[1, 0]]),
    ],
)
def test_malformed_lineset_file_is_a_json_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "set", "eval", "--space", "o6plus_q2", "--file", str(path))
    assert code == 1
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize(
    "doc",
    [
        dict(_HEADER),  # neither points nor vectors
        [0, 1, 2],
        dict(_HEADER, points=[{"p": 0}]),
        dict(_HEADER, vectors=[[1, 0, 0]]),
        dict(_HEADER, vectors=5),
    ],
)
def test_malformed_pointset_file_is_a_json_error(tmp_path, capsys, doc):
    path = tmp_path / "bad_points.json"
    path.write_text(json.dumps(doc))
    argv = ["construct", "pencil-union", "--space", "o6plus_q2", "--point-file", str(path)]
    code, out = run_cli(capsys, *argv, "-o", str(tmp_path / "union.json"))
    assert code == 1
    assert set(json.loads(out)) == {"error"}


# O+(6,2), Q = x0 x1 + x2 x3 + x4 x5: e0 and e1 are points with B(e0, e1) = 1,
# e0 + e1 is no point, and _PLANE spans a plane
_E0, _E1 = [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]
_PLANE = [[0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0]]


@pytest.mark.parametrize(
    "key,given,error",
    [
        ("vectors", [_E0, [1, 1, 0, 0, 0, 0]], "vector [1, 1, 0, 0, 0, 0] is not a point of this space"),
        ("vectors", [_E0, [0] * 6], "cannot normalize the zero vector"),
        ("bases", [[_E0, _E0]], f"basis {[_E0, _E0]} is not a line of this space"),
        ("bases", [_PLANE], f"basis {_PLANE} is not a line of this space"),
        ("bases", [[_E0, _E1]], f"basis {[_E0, _E1]} is not a line of this space"),
    ],
    ids=["no_point", "zero_vector", "rank_1", "three_rows", "not_isotropic"],
)
def test_set_file_lookup_errors_keep_their_messages(tmp_path, o6plus2, key, given, error):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(dict(_HEADER, **{key: given})))
    parse = parse_pointset_file if key == "vectors" else parse_lineset_file
    with pytest.raises(ValueError) as raised:
        parse(path, o6plus2)
    assert str(raised.value) == error


def test_pointset_file_given_by_scaled_vectors(tmp_path, o6plus3):
    pick = [0, 5, 64, 129]
    vectors = o6plus3.field.MUL[2, o6plus3.pts_arr[pick]].tolist()
    path = tmp_path / "points.json"
    path.write_text(json.dumps(dict(_HEADER, space=cli_header(o6plus3), vectors=vectors)))
    assert parse_pointset_file(path, o6plus3) == tuple(pick)


def test_pointset_file_whose_vectors_and_points_disagree_is_rejected(tmp_path, o6plus2):
    path = tmp_path / "points.json"
    vectors = [o6plus2.pts_arr[5].tolist()]
    path.write_text(json.dumps(dict(_HEADER, vectors=vectors, points=[5])))
    assert parse_pointset_file(path, o6plus2) == (5,)
    path.write_text(json.dumps(dict(_HEADER, vectors=vectors, points=[0, 1, 2])))
    with pytest.raises(ValueError, match="point indices and vectors disagree"):
        parse_pointset_file(path, o6plus2)


def test_lineset_file_of_scaled_and_row_swapped_bases(tmp_path, o6plus3):
    f = o6plus3.field
    pick = [0, 7, 300, 519]
    bases = f.MUL[2, o6plus3.line_basis_arr[pick][:, ::-1]]
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(dict(_HEADER, space=cli_header(o6plus3), bases=bases.tolist())))
    assert parse_lineset_file(path, o6plus3).indices == tuple(pick)


def cli_header(space):
    return {"family": space.family, "p": space.field.p, "h": space.field.h}


def test_fuzzed_set_files_parse_or_raise_value_error(tmp_path, o6plus2):
    """Any JSON document gives a line or point set, or a ValueError, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = (
        st.none()
        | st.booleans()
        | st.integers(-2, 120)
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4)
    )
    values = st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=12,
    )
    # near-valid fields reach the checks past the header
    vector = st.lists(st.integers(-1, 2), min_size=5, max_size=7)
    fields = {
        "fingerprint": st.none() | st.just(o6plus2.fingerprint) | values,
        "name": values,
        "lines": st.lists(st.integers(-2, 110), max_size=5) | values,
        "bases": st.lists(st.lists(vector, max_size=3), max_size=3) | values,
        "points": st.lists(st.integers(-2, 40), max_size=5) | values,
        "vectors": st.lists(vector, max_size=3) | values,
    }
    header = {"version": st.just(1), "space": st.just(_HEADER["space"])}
    docs = (
        st.fixed_dictionaries(header, optional=fields)
        | st.fixed_dictionaries({}, optional=dict(fields, version=values, space=values))
        | values
    )
    path = tmp_path / "fuzzed.json"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(docs)
    def check(doc):
        path.write_text(json.dumps(doc))
        for parse, kind in ((parse_lineset_file, LineSet), (parse_pointset_file, tuple)):
            try:
                got = parse(path, o6plus2)
            except ValueError:
                continue
            assert isinstance(got, kind)

    check()


def test_pencil_union_of_collinear_points_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "collinear.json"
    # O+(6,2) points 0 and 2 lie on line 0, so their pencils share it
    path.write_text(json.dumps(dict(_HEADER, points=[0, 1, 2, 3, 4])))
    argv = ["construct", "pencil-union", "--space", "o6plus_q2", "--point-file", str(path)]
    code, out = run_cli(capsys, *argv, "-o", str(tmp_path / "union.json"))
    assert code == 1
    assert json.loads(out) == {"error": "point-pencils are not pairwise disjoint; not an ovoid"}
    assert not (tmp_path / "union.json").exists()


def _first_row_replaced(doc, key, row):
    """The cache document with the first row of the first basis under key replaced."""
    return dict(doc, **{key: [[row] + doc[key][0][1:]] + doc[key][1:]})


# Sp(6,2) plane 1 is 001000, 000100, 000010.  Both bases below still sort
# between planes 0 and 2.  The first swaps in an RREF third row 000001 that
# is not perpendicular to 001000; the second spans plane 1 itself, in echelon
# form but not reduced.
_NON_ISOTROPIC_PLANE = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
_UNREDUCED_PLANE = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 0]]
# Sp(6,2) line 7 is 001000, 000010.  This basis still sorts between lines 6
# and 8, and every vector of its span is a point, but B(001000, 000001) = 1.
_NON_ISOTROPIC_LINE = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]


def _second_plane_replaced(doc, basis):
    return dict(doc, planes=[doc["planes"][0], basis] + doc["planes"][2:])


def _eighth_line_replaced(doc, basis):
    """The cache document with line 7 replaced by basis, under a fingerprint that matches."""
    lines = doc["lines"][:7] + [basis] + doc["lines"][8:]
    form = FormSpec(doc["family"], doc["p"] ** doc["h"])
    fingerprint = _fingerprint(form, np.array(lines, dtype=np.uint8))
    return dict(doc, lines=lines, fingerprint=fingerprint)


def _point_slipped_in(doc, vector):
    """The cache document with vector in place of the first point after it, else of the last.

    The points stay in strictly increasing order, so only a check on the
    vector itself can reject it.
    """
    points = doc["points"]
    k = next((i for i, p in enumerate(points) if p > vector), len(points) - 1)
    return dict(doc, points=points[:k] + [vector] + points[k + 1 :])


def _in_lists(corrupt):
    """corrupt, which edits the cache's points and bases as lists, on the stored document."""
    return lambda doc: encoded_cache(corrupt(decoded_cache(doc)))


_NOT_THE_POINTS = "space cache points are not the points of the space"
_NOT_ISOTROPIC = "a line or plane basis spans no totally isotropic subspace"
_BAD_LINES = "space cache has a missing or malformed 'lines' list"


@pytest.mark.parametrize(
    "space,corrupt,error",
    [
        ("o6plus_q2", lambda doc: [doc], None),
        ("o6plus_q2", lambda doc: {k: v for k, v in doc.items() if k != "counts"}, None),
        (
            "o6plus_q2",
            _in_lists(lambda doc: _first_row_replaced(doc, "lines", [1, 1, 0, 0, 0, 0])),
            None,
        ),
        (
            "o6plus_q2",
            _in_lists(lambda doc: _first_row_replaced(doc, "planes", [1, 1, 0, 0, 0, 0])),
            None,
        ),
        # a point of the space, but one off the plane: the rows span no plane
        (
            "o6plus_q2",
            _in_lists(lambda doc: _first_row_replaced(doc, "planes", doc["points"][-1])),
            None,
        ),
        ("o6plus_q2", lambda doc: dict(doc, p="x"), None),
        ("o6plus_q2", _in_lists(lambda doc: dict(doc, points=doc["points"][::-1])), None),
        (
            "o6plus_q2",
            _in_lists(lambda doc: dict(doc, lines=[doc["lines"][0][:1]] + doc["lines"][1:])),
            None,
        ),
        (
            "o6plus_q2",
            # planes 1 and 0, then the rest
            _in_lists(lambda doc: dict(doc, planes=doc["planes"][1::-1] + doc["planes"][2:])),
            None,
        ),
        (
            "sp6_q2",
            _in_lists(lambda doc: _second_plane_replaced(doc, _NON_ISOTROPIC_PLANE)),
            _NOT_ISOTROPIC,
        ),
        (
            "sp6_q2",
            _in_lists(lambda doc: _eighth_line_replaced(doc, _NON_ISOTROPIC_LINE)),
            _NOT_ISOTROPIC,
        ),
        ("sp6_q2", _in_lists(lambda doc: _second_plane_replaced(doc, _UNREDUCED_PLANE)), None),
        # 2 times the last point: singular, but its leading coefficient is 2
        (
            "o6plus_q3",
            _in_lists(lambda doc: _point_slipped_in(doc, [2 * x % 3 for x in doc["points"][-1]])),
            _NOT_THE_POINTS,
        ),
        # Q = x0 x1 + x2 x3 + x4 x5 = 1
        (
            "o6plus_q2",
            _in_lists(lambda doc: _point_slipped_in(doc, [1, 1, 1, 1, 1, 1])),
            _NOT_THE_POINTS,
        ),
        (
            "o6plus_q2",
            _in_lists(lambda doc: dict(doc, points=doc["points"][:1] + doc["points"][:-1])),
            _NOT_THE_POINTS,
        ),
        ("o6plus_q2", lambda doc: dict(doc, lines="!" + doc["lines"][1:]), _BAD_LINES),
        ("o6plus_q2", _in_lists(lambda doc: dict(doc, lines=doc["lines"][:-1])), _BAD_LINES),
        # a coordinate byte equal to q = 2
        (
            "o6plus_q2",
            _in_lists(lambda doc: _first_row_replaced(doc, "lines", [0, 0, 0, 0, 0, 2])),
            _BAD_LINES,
        ),
        # the nested-list layout of version 1 has no second reader
        (
            "o6plus_q2",
            lambda doc: dict(decoded_cache(doc), format_version=1),
            "unsupported space cache version 1",
        ),
    ],
    ids=[
        "list",
        "no_counts",
        "line_row",
        "plane_row",
        "plane_of_points",
        "p",
        "points_reversed",
        "ragged_lines",
        "planes_swapped",
        "non_isotropic_plane",
        "non_isotropic_line",
        "unreduced_plane",
        "point_leading_2",
        "non_singular_point",
        "duplicated_point",
        "non_base64",
        "one_line_short",
        "coordinate_q",
        "version_1_lists",
    ],
)
def test_malformed_space_cache_is_a_json_error(tmp_path, capsys, space, corrupt, error):
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "space", "build", "--space", space, "--cache", cache)[0] == 0
    path = cli._space_path(cache, *cli._parse_space_name(space))
    with open(path) as fh:
        doc = json.load(fh)
    with open(path, "w") as fh:
        json.dump(corrupt(doc), fh)
    code, out = run_cli(capsys, "--cache", cache, "space", "info", "--space", space)
    assert code == 1
    assert set(json.loads(out)) == {"error"}
    assert error in (None, json.loads(out)["error"])
