import hashlib
import io
import json

import pytest

from rigidpack import matroid
from rigidpack.cli import build_parser, main
from rigidpack.generators import complete_graph, cycle_graph, gnp_graph
from rigidpack.graph import Graph, read_digraph, read_graph, write_graph
from rigidpack.matroid import ForestState
from rigidpack.rigidity import Realization, RigidityOracle, RigidityPartitionState


def run_cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_gen_complete_round_trip(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["gen", "complete", "--n", "6"])
    assert code == 0
    g = read_graph(out)
    assert g.n == 6 and g.m == 15
    report = last_json(out)
    assert report["schema"] == 1 and report["stats"]["m"] == 15


def test_gen_harary_and_witnesses(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["gen", "harary", "--k", "3", "--m", "8"])
    assert code == 0 and read_graph(out).m == 12
    code, out = run_cli(
        capsys, monkeypatch, ["gen", "tdrigid-pack", "--n", "8", "--d", "2", "--t", "2"]
    )
    assert code == 0
    report = last_json(out)
    assert len(report["stats"]["parts"]) == 2
    code, out = run_cli(capsys, monkeypatch, ["gen", "tree-rigid", "--n", "11", "--d", "6"])
    assert report["schema"] == 1 and code == 0
    code, out = run_cli(
        capsys, monkeypatch, ["gen", "lovasz-yemini", "--dims", "2", "--s", "4"]
    )
    assert code == 0
    assert last_json(out)["stats"]["strict"] is True


def test_rank_prints_number(capsys, monkeypatch):
    text = write_graph(complete_graph(4))
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2"], stdin=text)
    assert code == 0 and out.strip() == "5"
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2", "--t", "2"],
                        stdin=write_graph(complete_graph(8)))
    assert out.strip() == "26"
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2", "--graphic"],
                        stdin=write_graph(complete_graph(8)))
    assert out.strip() == "20"


def test_pack_blocks_and_summary(capsys, monkeypatch):
    text = write_graph(complete_graph(8))
    code, out = run_cli(capsys, monkeypatch, ["pack", "--d", "2", "--t", "2"], stdin=text)
    assert code == 0
    report = last_json(out)
    assert report["stats"]["sizes"] == [13, 13]
    assert report["stats"]["verified"] is True
    first = read_graph(out)
    assert first.n == 8 and first.m == 13


def test_pack_infeasible_exit_code(capsys, monkeypatch):
    text = write_graph(cycle_graph(5))
    code, out = run_cli(capsys, monkeypatch, ["pack", "--d", "2", "--t", "1"], stdin=text)
    assert code == 1
    assert last_json(out)["stats"]["feasible"] is False


def test_kriesell(capsys, monkeypatch):
    text = write_graph(complete_graph(6))
    code, out = run_cli(capsys, monkeypatch, ["kriesell", "--d", "2"], stdin=text)
    assert code == 0
    assert last_json(out)["stats"]["sizes"] == [5, 9]


@pytest.mark.parametrize("fault", ["graphic", "rigidity"])
def test_kriesell_failed_recheck_exits_1(capsys, monkeypatch, fault):
    if fault == "graphic":
        monkeypatch.setattr(matroid, "independent_d1", lambda graph, ids: False)
    else:
        monkeypatch.setattr(RigidityOracle, "verify_independent", lambda self, *ids: False)
    text = write_graph(complete_graph(6))
    code, out = run_cli(capsys, monkeypatch, ["kriesell", "--d", "2"], stdin=text)
    assert code == 1
    stats = last_json(out)["stats"]
    assert stats["feasible"] is True and stats["verified"] is False
    assert stats["sizes"] == [5, 9] and stats["deficiency"] == 0


def test_orient_verify_and_pipe(capsys, monkeypatch):
    text = write_graph(complete_graph(17))
    code, out = run_cli(
        capsys, monkeypatch, ["orient", "--k", "2", "--verify"], stdin=text
    )
    assert code == 0
    report = last_json(out)
    assert report["stats"]["verified"] is True
    assert report["stats"]["base_sizes"] == [58, 58]
    oriented = read_digraph(out)
    code2, out2 = run_cli(
        capsys, monkeypatch, ["verify", "--k", "2", "--digraph"],
        stdin=out,
    )
    assert code2 == 0
    assert oriented.parent.n == 17


def test_orient_packing_failure(capsys, monkeypatch):
    text = write_graph(cycle_graph(6))
    code, out = run_cli(capsys, monkeypatch, ["orient", "--k", "2"], stdin=text)
    assert code == 1
    report = last_json(out)
    assert report["object"] == "orientation-failure"
    assert report["certificates"] == [{"kind": "packing-deficiency"}]


def test_orient_unverified_packing_fails(capsys, monkeypatch):
    monkeypatch.setattr(RigidityOracle, "verify_independent", lambda self, *ids: False)
    text = write_graph(complete_graph(17))
    code, out = run_cli(capsys, monkeypatch, ["pack", "--d", "4", "--t", "2"], stdin=text)
    assert code == 1
    assert last_json(out)["stats"]["feasible"] is True
    code, out = run_cli(capsys, monkeypatch, ["orient", "--k", "2"], stdin=text)
    assert code == 1
    report = last_json(out)
    assert report["object"] == "orientation-failure"
    assert report["certificates"] == [{"kind": "packing-unverified"}]
    assert report["stats"]["deficiency"] == 0
    assert out.count("\n") == 1             # the report line only: no orientation


def refuse_the_first_exchange(monkeypatch):
    """Make every partition state refuse every exchange.

    The first exchange is a swap on an augmenting path: a kernel fault.
    """
    for state in (RigidityPartitionState, ForestState):
        monkeypatch.setattr(state, "exchange", lambda self, add, old: False)


@pytest.mark.parametrize("argv", [
    ["pack", "--d", "2", "--t", "2"],
    ["kriesell", "--d", "2"],
    ["rank", "--d", "2", "--t", "2"],
    ["orient", "--k", "2"],
    ["rank", "--d", "2", "--graphic"],      # partitions even at t = 1
])
def test_kernel_fault_is_a_report_not_a_traceback(capsys, monkeypatch, argv):
    refuse_the_first_exchange(monkeypatch)
    text = write_graph(complete_graph(10))
    code, out = run_cli(capsys, monkeypatch, argv, stdin=text)
    assert code == 1
    assert out.count("\n") == 1             # the report line only: no object
    report = last_json(out)
    assert report["object"] == "partition-failure"
    [cert] = report["certificates"]
    assert cert["kind"] == "kernel-fault"
    assert "refused element" in cert["detail"]


def test_orient_k1_bridge(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["orient", "--k", "1"],
                        stdin="3 2\n0 1\n1 2\n")
    assert code == 1
    assert last_json(out)["certificates"][0]["kind"] == "bridge"


def test_verify_failure_certificate(capsys, monkeypatch):
    text = write_graph(cycle_graph(6))
    code, out = run_cli(capsys, monkeypatch, ["verify", "--k", "5"], stdin=text)
    assert code == 1
    cert = last_json(out)["certificates"][0]
    assert len(cert["separator"]) == 2


def test_orient_explicit_R(capsys, monkeypatch):
    text = write_graph(complete_graph(17))
    ids = ",".join(str(v) for v in range(7, 17))
    code, out = run_cli(capsys, monkeypatch,
                        ["orient", "--k", "2", "--R", ids], stdin=text)
    assert code == 0
    report = last_json(out)
    assert report["stats"]["deficits"][:7] == [0] * 7


def test_parse_error_exit_2(capsys, monkeypatch):
    code, _ = run_cli(capsys, monkeypatch, ["verify", "--k", "2"], stdin="2 1\n1 1\n")
    assert code == 2
    # out-of-range flags are usage errors too
    for argv, stdin, message in (
        (["rank", "--d", "2", "--t", "-1", "--graphic"], write_graph(complete_graph(5)),
         "t must be at least 1"),
        (["gen", "gnp", "--n", "5", "--p", "2"], "", "probability"),
        (["simulate", "e0", "--d", "0", "--t", "1", "--trials", "2"],
         write_graph(complete_graph(4)), "d and t must be at least 1"),
        (["simulate", "e0", "--d", "1", "--t", "0", "--trials", "2"],
         write_graph(complete_graph(4)), "d and t must be at least 1"),
        # the deficit set is checked before the packing runs, even on an
        # infeasible host
        (["orient", "--k", "2", "--R", "0,1"], write_graph(complete_graph(9)),
         "deficit set must hold"),
        # an explicit empty set is a set too, not the default one
        (["orient", "--k", "2", "--R", ""], write_graph(complete_graph(9)),
         "deficit set must hold"),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_cached_parser_parses_each_call_afresh(capsys, monkeypatch):
    # one parser serves every main call in a process; no flag, default or
    # subcommand carries over from one call to the next
    assert build_parser() is build_parser()
    k8 = write_graph(complete_graph(8))
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2", "--graphic"], stdin=k8)
    assert code == 0 and out.strip() == "20"
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2"], stdin=k8)
    assert code == 0 and out.strip() == "13"
    code, out = run_cli(capsys, monkeypatch, ["verify", "--k", "7", "--seed", "4"], stdin=k8)
    assert code == 0 and last_json(out)["seed"] == 4
    code, out = run_cli(capsys, monkeypatch, ["verify", "--k", "7"], stdin=k8)
    assert code == 0 and last_json(out)["seed"] == 0
    for argv in (["rank"], ["rank", "--d", "x"], ["pack", "--d", "2", "--graphic"], [],
                 ["simulate", "gpd", "--cap", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2", "--t", "2"], stdin=k8)
    assert code == 0 and out.strip() == "26"


def test_simulate_ordering(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, [
        "simulate", "ordering", "--set-size", "10", "--d", "3",
        "--trials", "20000", "--seed", "1",
    ])
    assert code == 0
    report = last_json(out)
    assert report["stats"]["bound"] == 2.4
    assert report["stats"]["verdict"] is True


def test_simulate_e0(capsys, monkeypatch):
    text = write_graph(complete_graph(20))
    code, out = run_cli(capsys, monkeypatch, [
        "simulate", "e0", "--d", "1", "--t", "1", "--trials", "20", "--seed", "3",
    ], stdin=text)
    report = last_json(out)
    assert report["stats"]["hypothesis_met"] is False
    assert code == 0


def test_simulate_chernoff(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch,
                        ["simulate", "chernoff", "--trials", "500", "--seed", "0"])
    assert code == 0
    report = last_json(out)
    assert report["stats"]["verdict"] is True
    assert len(report["stats"]["points"]) == 8


@pytest.mark.parametrize("argv", [
    ["ordering", "--set-size", "10", "--d", "3"],
    ["e0", "--d", "1", "--t", "1"],
    ["ordering", "--set-size", "3", "--d", "3"],
    ["chernoff"],
])
def test_simulate_zero_trials_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(complete_graph(8))))
    code = main(["simulate", *argv, "--trials", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_deterministic_output(capsys, monkeypatch):
    text = write_graph(complete_graph(10))
    _, out1 = run_cli(capsys, monkeypatch, ["pack", "--d", "2", "--t", "2"], stdin=text)
    _, out2 = run_cli(capsys, monkeypatch, ["pack", "--d", "2", "--t", "2"], stdin=text)
    assert out1 == out2
    _, out3 = run_cli(capsys, monkeypatch,
                      ["pack", "--d", "2", "--t", "2", "--seed", "5"], stdin=text)
    assert out1 != out3


def test_output_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.edges"
    code, out = run_cli(capsys, monkeypatch,
                        ["gen", "complete", "--n", "5", "-o", str(target)])
    assert code == 0
    assert read_graph(target.read_text()).m == 10
    assert json.loads(out.strip())["stats"]["m"] == 10


@pytest.mark.parametrize("argv,flag", [
    (["rank", "--d", "2"], "-o"),
    (["verify", "--k", "2"], "--output"),
    (["simulate", "e0", "--d", "1", "--t", "1"], "-o"),
    (["simulate", "chernoff"], "-o"),
    (["simulate", "ordering", "--set-size", "10", "--d", "3"], "-o"),
    (["simulate", "chernoff"], "-i"),
    (["simulate", "ordering", "--set-size", "10", "--d", "3"], "--input"),
    (["gen", "complete", "--n", "5"], "-i"),
])
def test_io_flags_only_where_read(tmp_path, capsys, monkeypatch, argv, flag):
    # a command that never reads (or never writes) an object rejects the
    # flag as a usage error, and leaves the named file alone
    path = tmp_path / "graph.edges"
    path.write_text(write_graph(complete_graph(5)))
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(complete_graph(5))))
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert path.read_text() == write_graph(complete_graph(5))


K17 = ["gen", "complete", "--n", "17"]
# 229 edges, of which the packing places 114: 39 searches fail and the dead
# set prunes the later ones; both parts are bases after the 153rd edge, so
# the last 76 edges start no search
GNP30 = ["gen", "gnp", "--n", "30", "--p", "0.5", "--seed", "4"]


@pytest.mark.parametrize("argv,digest", [
    ((K17, ["pack", "--d", "4", "--t", "2", "--seed", "3"]),
     "9049db1a908bdb5b8fff324f9065d8236cc43d5df18e3576aacb536dca258378"),
    ((K17, ["orient", "--k", "2", "--verify", "--seed", "3"]),
     "99c8bcab1037503d6b9e87781e389233160ef32abcdcf22ce79525ac45e6a62e"),
    ((GNP30, ["pack", "--d", "2", "--t", "2", "--seed", "5"]),
     "631996ace70e0398c41afc73ea1fd69ff37d453e761fd33325214095ecbc387a"),
])
def test_seeded_output_is_pinned(capsys, monkeypatch, argv, digest):
    # the byte-identical contract, across runs and across Python versions;
    # argv is the host generator's command line, then the command's
    gen_argv, command_argv = argv
    _, host = run_cli(capsys, monkeypatch, gen_argv)
    code, out = run_cli(capsys, monkeypatch, command_argv, stdin=host)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rank_union_draws_one_realization(capsys, monkeypatch):
    drawn = []
    draw = Realization.random.__func__

    def counting(cls, n, d, seed, salt=0):
        drawn.append(salt)
        return draw(cls, n, d, seed, salt)

    monkeypatch.setattr(Realization, "random", classmethod(counting))
    text = write_graph(complete_graph(12))
    code, out = run_cli(capsys, monkeypatch, ["rank", "--d", "2", "--t", "3"], stdin=text)
    assert code == 0 and out.strip() == "63"
    assert len(drawn) == 1


@pytest.mark.parametrize("argv,value", [
    (["--t", "2"], "42"),
    ([], "21"),
    (["--t", "2", "--graphic"], "53"),
])
def test_rank_guard_reseeds_an_unlucky_realization(capsys, monkeypatch, unlucky, argv, value):
    # salt 1 puts K12 on a line; the guard's realization, salt 1 + 2^20, does not
    drawn = unlucky(1)
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(complete_graph(12))))
    code = main(["rank", "--d", "2", "--seed", "1", *argv])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == value + "\n"
    assert captured.err == "rank: short rank reseeded under a second realization\n"
    assert drawn == [1, 1 + (1 << 20)]


def test_rank_guard_is_silent_on_full_ranks(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph(complete_graph(12))))
    assert main(["rank", "--d", "2", "--t", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_reports_carry_the_guard_only_when_it_ran(capsys, monkeypatch, unlucky):
    # truly short hosts: the packing, and the orientation that needs one, are
    # confirmed short; an untouched packing has no guard key
    short = write_graph(gnp_graph(24, 0.3, seed=2))
    code, out = run_cli(capsys, monkeypatch, ["pack", "--d", "2", "--t", "2", "--seed", "3"],
                        stdin=short)
    stats = last_json(out)["stats"]
    assert code == 1 and stats["sizes"] == [44, 43] and stats["guard"] == "confirmed"
    # K16 plus a vertex of degree 3 < d = 4: union rank 2 * 54 + 3 < min(123, 116)
    low = Graph(17, [*complete_graph(16).edges, (0, 16), (1, 16), (2, 16)])
    code, out = run_cli(capsys, monkeypatch, ["orient", "--k", "2"], stdin=write_graph(low))
    report = last_json(out)
    assert code == 1 and report["object"] == "orientation-failure"
    assert report["stats"]["guard"] == "confirmed"
    k17 = write_graph(complete_graph(17))
    code, out = run_cli(capsys, monkeypatch, ["pack", "--d", "4", "--t", "2"], stdin=k17)
    assert code == 0 and "guard" not in last_json(out)["stats"]
    # an unlucky first realization under an orientation is reseeded, and said so
    unlucky(1)
    code, out = run_cli(capsys, monkeypatch, ["orient", "--k", "2", "--verify"], stdin=k17)
    stats = last_json(out)["stats"]
    assert code == 0 and stats["verified"] is True and stats["guard"] == "reseeded"
