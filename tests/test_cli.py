import json

import pytest

from reasm import reductions
from reasm.cli import main
from reasm.graphs import parse_graph
from reasm.reductions import LemmaReport
from reasm.trees import ReassemblingTree

C4_TEXT = "4 4\n0 1\n0 3\n1 2\n2 3\n"
K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C8_TEXT = "8 8\n0 1\n0 7\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n"
PAIRED_TREE_TEXT = "[[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2, 3]]"
CATERPILLAR_TREE_TEXT = "[[0], [1], [2], [3], [0, 1], [0, 1, 2], [0, 1, 2, 3]]"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_optimize_documented_output(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    code, out, _ = run(["optimize", g, "--objective", "beta", "--sense", "min"], capsys)
    assert code == 0
    assert out == '{"value":12,"tree":[[0],[1],[2],[3],[0,1],[2,3],[0,1,2,3]]}\n'


def test_partitions4_documented_output(capsys):
    code, out, _ = run(["oracle", "partitions4", "8"], capsys)
    assert code == 0
    assert out == (
        '{"count":5,"closedForm":5,"partitions":'
        "[[5,1,1,1],[4,2,1,1],[3,3,1,1],[3,2,2,1],[2,2,2,2]]}\n"
    )


def test_verify_lemma_documented_output(capsys):
    code, out, _ = run(
        ["verify-lemma", "1", "--instances", "5", "--seed", "7", "--n", "4"], capsys
    )
    assert code == 0
    assert out == '{"lemma":1,"tried":5,"passed":true}\n'


def test_measure_reports_the_height_identity(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    t = write(tmp_path, "t.json", PAIRED_TREE_TEXT)
    code, out, _ = run(["measure", g, t], capsys)
    assert code == 0
    assert out == '{"alpha":2,"beta":12,"betaViaHeights":12}\n'


def test_measure_drops_the_identity_for_unbalanced_trees(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    t = write(tmp_path, "t.json", CATERPILLAR_TREE_TEXT)
    code, out, _ = run(["measure", g, t], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"alpha": 2, "beta": 12}  # no betaViaHeights key


def test_minbisect_output(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    code, out, _ = run(["oracle", "minbisect", g], capsys)
    assert code == 0
    assert out == '{"value":2,"count":2,"bisections":[[[0,1],[2,3]],[[0,3],[1,2]]]}\n'


def test_cover_oracle_with_explicit_sizes(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    code, out, _ = run(["oracle", "cliquecover4", g, "--sizes", "1,1,1,1"], capsys)
    assert code == 0
    assert out == '{"found":true,"blocks":[[0],[1],[2],[3]]}\n'


def test_cover_oracle_defaults_to_equal_blocks(tmp_path, capsys):
    g = write(tmp_path, "c8.edges", C8_TEXT)
    code, out, _ = run(["oracle", "cliquecover4", g], capsys)
    assert code == 0
    assert out == '{"found":true,"blocks":[[0,1],[2,3],[4,5],[6,7]]}\n'


def test_cover_oracle_reports_misses(tmp_path, capsys):
    g = write(tmp_path, "c8.edges", C8_TEXT)
    code, out, _ = run(["oracle", "cliquecover4", g, "--sizes", "5,1,1,1"], capsys)
    assert code == 0
    assert out == '{"found":false}\n'


def test_cover_oracle_rejects_malformed_sizes(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    code, _, err = run(["oracle", "cliquecover4", g, "--sizes", "1,x"], capsys)
    assert code == 1
    assert "comma-separated ints" in err


def test_reduce_augment_document(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    code, out, _ = run(["reduce", "augment", g], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["r"], doc["q"]) == (8, 22, 0, 2)
    assert doc["gPart"] == [0, 1, 2, 3]
    assert doc["hPart"] == [4, 5]
    assert doc["iPart"] == [6, 7]
    big = parse_graph(doc["edgeList"])
    assert (big.n, big.m) == (8, 22)
    assert not big.has_edge(4, 6)  # the two added cliques stay separated
    assert big.has_edge(4, 5) and big.has_edge(6, 7)


def test_reduce_gadget_document(tmp_path, capsys):
    g = write(tmp_path, "k4.edges", K4_TEXT)
    code, out, _ = run(["reduce", "equal-size-gadget", g, "--sizes", "1,1,1,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"]) == (16, 66)
    assert doc["addedBlocks"] == [[4, 5, 6], [7, 8, 9], [10, 11, 12], [13, 14, 15]]
    assert parse_graph(doc["edgeList"]).m == 66


def test_reduce_gadget_requires_sizes(tmp_path, capsys):
    g = write(tmp_path, "k4.edges", K4_TEXT)
    code, _, err = run(["reduce", "equal-size-gadget", g], capsys)
    assert code == 1
    assert "needs --sizes" in err


def test_gen_families_emit_parseable_graphs(capsys):
    for family in ("cycle", "clique", "random", "planted-cover"):
        code, out, _ = run(["gen", "--family", family, "--n", "8", "--seed", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == family
        g = parse_graph(doc["edgeList"])
        assert (g.n, g.m) == (doc["n"], doc["m"])


def test_gen_cycle_output(capsys):
    code, out, _ = run(["gen", "--family", "cycle", "--n", "6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "family": "cycle",
        "n": 6,
        "m": 6,
        "edgeList": "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n",
    }


def test_identical_argv_produces_identical_bytes(tmp_path, capsys):
    g = write(tmp_path, "c8.edges", C8_TEXT)
    runs = [
        run(["optimize", g, "--objective", "beta", "--sense", "max"], capsys)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [run(["gen", "--family", "random", "--n", "10", "--seed", "9"], capsys) for _ in range(2)]
    assert runs[0] == runs[1]


def test_emitted_tree_reparses(tmp_path, capsys):
    g = write(tmp_path, "c8.edges", C8_TEXT)
    _, out, _ = run(["optimize", g, "--objective", "alpha", "--sense", "min"], capsys)
    doc = json.loads(out)
    tree = ReassemblingTree.from_lists(doc["tree"])
    assert tree.is_balanced() and tree.root.bit_count() == 8


def test_pretty_flag_indents_without_changing_content(tmp_path, capsys):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    _, compact, _ = run(["optimize", g], capsys)
    code, pretty, _ = run(["optimize", g, "--pretty"], capsys)
    assert code == 0
    assert pretty.startswith("{\n  ")
    assert json.loads(pretty) == json.loads(compact)


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_file_is_a_domain_error(capsys):
    code, out, err = run(["optimize", "/no/such/file.edges"], capsys)
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_malformed_graph_file_is_a_domain_error(tmp_path, capsys):
    g = write(tmp_path, "bad.edges", "4 1\n2 2\n")
    code, _, err = run(["optimize", g], capsys)
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "element,named", [('"x"', "'x'"), ("3.5", "3.5"), ("true", "True"), ("-1", "-1")]
)
def test_bad_vertex_id_in_tree_is_a_domain_error(tmp_path, capsys, element, named):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    t = write(tmp_path, "t.json", f"[[0], [1], [{element}], [3], [0, 1], [2, 3], [0, 1, 2, 3]]")
    code, out, err = run(["measure", g, t], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: invalid reassembling tree: cluster [{named}]: vertex id {named} is not a non-negative int\n"


@pytest.mark.parametrize("element,named", [("2", "2"), ("null", "None"), ('"2"', "'2'")])
def test_tree_cluster_that_is_not_an_array_is_a_domain_error(tmp_path, capsys, element, named):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    t = write(tmp_path, "t.json", f"[[0], [1], {element}, [3], [0, 1], [2, 3], [0, 1, 2, 3]]")
    code, out, err = run(["measure", g, t], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: invalid reassembling tree: cluster {named} is not an array of vertex ids\n"


def test_failed_verification_exits_nonzero(capsys, monkeypatch):
    stub = LemmaReport(lemma=5, tried=1, passed=False, counterexample={"detail": "x"})
    monkeypatch.setattr(reductions, "verify_lemma", lambda *a, **k: stub)
    code, out, _ = run(["verify-lemma", "5", "--instances", "1"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "lemma,n,message",
    [
        ("1", "7", "lemma 1 supports n in {2, 4, 6, 8}, got 7"),
        ("1", "10", "lemma 1 supports n in {2, 4, 6, 8}, got 10"),
        ("2", "0", "lemma 2 supports n in {2, 4, 6, 8}, got 0"),
        ("3", "8", "lemma 3 supports n in {2, 4}, got 8"),
        ("3", "6", "lemma 3 supports n in {2, 4}, got 6"),
        ("4", "6", "lemma 4 needs a power-of-two n, got 6"),
        ("4", "-4", "lemma 4 needs a power-of-two n, got -4"),
        ("5", "16", "lemma 5 supports n in {4, 8}, got 16"),
        ("6", "2", "lemma 6 supports n in {4, 8}, got 2"),
    ],
)
def test_verify_lemma_rejects_an_unsupported_n(capsys, lemma, n, message):
    code, out, err = run(["verify-lemma", lemma, "--instances", "1", "--n", n], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("lemma,n", [("1", "2"), ("2", "8"), ("3", "2"), ("4", "1"), ("4", "16"), ("5", "4"), ("6", "4")])
def test_verify_lemma_accepts_each_supported_edge_n(capsys, lemma, n):
    code, out, err = run(["verify-lemma", lemma, "--instances", "1", "--n", n, "--seed", "3"], capsys)
    assert (code, out, err) == (0, f'{{"lemma":{lemma},"tried":1,"passed":true}}\n', "")


def test_reasm_workers_changes_nothing(tmp_path, capsys, monkeypatch):
    g = write(tmp_path, "c4.edges", C4_TEXT)
    t = write(tmp_path, "t.json", PAIRED_TREE_TEXT)
    commands = [["measure", g, t], ["optimize", g]]
    plain = [run(argv, capsys) for argv in commands]
    monkeypatch.setenv("REASM_WORKERS", "many")
    assert [run(argv, capsys) for argv in commands] == plain
    assert all(err == "" for _, _, err in plain)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "partitions4", "301"], "partitions4 is capped at n <= 300, got 301"),
        (["gen", "--family", "clique", "--n", "1025"], "gen is capped at n <= 1024, got 1025"),
    ],
)
def test_size_caps_fail_before_any_work(capsys, argv, message):
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


def test_size_caps_admit_the_cap(capsys):
    code, out, err = run(["oracle", "partitions4", "300"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 189375
    code, out, err = run(["gen", "--family", "cycle", "--n", "1024"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["m"] == 1024
