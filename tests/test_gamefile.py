"""Game file round trips, canonical bytes, generation, negative
controls."""

import copy
import gc
import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin import (
    GameError,
    GameFileError,
    GameParseError,
    GameSpec,
    GameStructureError,
    ScenarioTree,
    TreeError,
    canonicalize,
    demo_constant,
    gen_game,
    horizon_stop,
    load_game,
    load_profile,
    save_game,
    save_profile,
    validate_assumptions,
)
from dynkin.gamefile import (
    _PIECE,
    _document_digest,
    _game_chunks,
    _spec_fields,
    canonical_bytes,
    game_digest,
    game_from_document,
)
from helpers import (
    chain_tree,
    game_document,
    prescan_game_from_document,
    random_tree,
    reference_canonical_bytes,
    reference_node_fields,
    reference_tree_checks,
    relabeled_game,
)


def test_round_trip_preserves_the_game(tmp_path):
    spec = gen_game(3, 3, 2, seed=123, mode="touching")
    path = tmp_path / "game.json"
    save_game(spec, str(path))
    loaded = load_game(str(path))
    assert loaded == spec
    # canonical serialization is byte-stable across a round trip
    assert path.read_bytes() == reference_canonical_bytes(game_document(loaded))


def _reference_bytes(spec) -> bytes:
    return reference_canonical_bytes(game_document(spec))


def _written_bytes(spec) -> bytes:
    return "".join(_game_chunks(*_spec_fields(spec))).encode("utf-8")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e300, -1e300, 5.0,
               -3.0, 1e16, 0.1]


@st.composite
def float_games(draw):
    tree = random_tree(random.Random(draw(st.integers(0, 2**32))),
                       depth=draw(st.integers(1, 3)))
    values = st.lists(
        st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=tree.n_nodes, max_size=tree.n_nodes,
    )
    players = draw(st.integers(2, 3))
    x, q, y = ([draw(values) for _ in range(players)] for _ in range(3))
    return GameSpec(tree, x, q, y)


@settings(max_examples=150, deadline=None)
@given(float_games())
def test_writer_matches_the_reference_on_any_floats(spec):
    assert _written_bytes(spec) == _reference_bytes(spec)


def _int_game():
    tree = chain_tree(3)
    ints = [[0, 1, -2, 7], [3, 0, 10**15, 2]]
    return GameSpec(tree, ints, ints, ints)


def _chain_game():
    rng = random.Random(3)
    tree = chain_tree(2500)
    def procs():
        return [[rng.uniform(-5, 5) for _ in range(tree.n_nodes)]
                for _ in range(3)]
    return GameSpec(tree, procs(), procs(), procs())


def _edge_game():
    """Past one piece, every array cycling through ``EDGE_FLOATS`` from
    its own offset."""
    tree = ScenarioTree.uniform(10, 2)  # 2,047 nodes
    arrays = [[EDGE_FLOATS[(v + k) % len(EDGE_FLOATS)]
               for v in range(tree.n_nodes)] for k in range(9)]
    return GameSpec(tree, arrays[:3], arrays[3:6], arrays[6:])


@pytest.mark.parametrize("make", [
    _int_game,
    _chain_game,
    lambda: relabeled_game(gen_game(3, 3, 3, seed=15, mode="touching"),
                           random.Random(15)),
    lambda: demo_constant(3, 2, 3),
    lambda: gen_game(2, 11, 2, seed=4, mode="touching"),
    _edge_game,
], ids=["int_payoffs", "chain", "relabeled", "demo", "more_than_a_piece",
        "edge_floats_past_a_piece"])
def test_writer_matches_the_reference(make):
    spec = make()
    reference = _reference_bytes(spec)
    assert _written_bytes(spec) == reference
    assert _document_digest(json.loads(reference)) == game_digest(spec)


NUMBERS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([2**64, -(2**64) - 1, 10**40, 0.0, -0.0, 5e-324,
                     -2.5e-310, math.nan, math.inf, -math.inf]),
)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', ", ", "a, b", "[1, 2]", "{", "\0", "\\",
                     "caf\u00e9 \u2603 \U0001f600"]),
)


@st.composite
def long_arrays(draw):
    """A list or tuple past one piece, perhaps with a string or a
    container somewhere in it."""
    head = draw(st.lists(NUMBERS, min_size=1, max_size=3))
    arr = head * (_PIECE // len(head) + draw(st.integers(1, 400)))
    if draw(st.booleans()):
        odd = st.one_of(STRINGS, st.lists(NUMBERS, max_size=2),
                        st.dictionaries(STRINGS, NUMBERS, max_size=2))
        arr.insert(draw(st.integers(0, len(arr))), draw(odd))
    return draw(st.sampled_from([arr, tuple(arr)]))


DOCUMENTS = st.recursive(
    st.one_of(NUMBERS, STRINGS, long_arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
@example([1, "a, b"])
@example([[1], 2, "x"])
@example([0.5, {"k": [], "": ()}])
def test_canonical_bytes_match_the_reference(doc):
    assert canonical_bytes(doc) == reference_canonical_bytes(doc)


def test_save_and_digest_agree(tmp_path):
    path = tmp_path / "game.json"
    for spec in (gen_game(3, 3, 2, seed=7, mode="touching"), _chain_game(),
                 demo_constant(2, 1, 2)):
        save_game(spec, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert game_digest(spec) == "sha256:" + digest


def test_digest_streams():
    spec = gen_game(2, 13, 2, seed=1)  # 16,383 nodes
    size = len(_written_bytes(spec))
    tracemalloc.start()
    try:
        game_digest(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4, (peak, size)


def test_save_is_deterministic(tmp_path):
    spec = gen_game(2, 2, 2, seed=5)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_game(spec, str(a))
    save_game(spec, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_same_seed_is_identical():
    g1 = gen_game(2, 3, 2, seed=9, mode="touching")
    g2 = gen_game(2, 3, 2, seed=9, mode="touching")
    assert g1 == g2
    g3 = gen_game(2, 3, 2, seed=10, mode="touching")
    assert g1 != g3


def test_gen_strict_has_margins():
    spec = gen_game(3, 3, 2, seed=77, mode="strict", gap=0.1)
    assert validate_assumptions(spec).passed
    for i in range(3):
        for v in range(spec.tree.n_nodes):
            assert spec.Q[i][v] - spec.X[i][v] >= 0.1
            assert spec.Y[i][v] - spec.Q[i][v] >= 0.1


def test_gen_touching_touches_somewhere():
    spec = gen_game(2, 3, 2, seed=4, mode="touching")
    assert validate_assumptions(spec).passed
    touched = [
        v
        for v in range(spec.tree.n_nodes)
        if spec.Q[0][v] == spec.Y[0][v]
    ]
    assert touched


def test_gen_rejects_a_negative_gap():
    for gap in (-5.0, -1e-12, math.nan, math.inf):
        with pytest.raises(GameError, match="gap"):
            gen_game(2, 2, 2, seed=1, gap=gap)
    for touch_frac in (math.nan, -0.1, 1.5, math.inf, -math.inf):
        for mode in ("strict", "touching"):
            with pytest.raises(GameError, match="touch_frac"):
                gen_game(2, 2, 2, seed=1, mode=mode, touch_frac=touch_frac)
    for touch_frac in (0.0, 1.0):
        gen_game(2, 2, 2, seed=1, mode="touching", touch_frac=touch_frac)
    spec = gen_game(2, 2, 2, seed=1, gap=0.0)
    assert validate_assumptions(spec).passed


def test_demo_constant_values():
    spec = demo_constant(4, 2, 3)
    assert spec.n_players == 4
    assert all(x == 0.5 for p in spec.X for x in p)
    assert all(x == 1.0 for p in spec.Q for x in p)
    assert all(x == 1.0 for p in spec.Y for x in p)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(GameParseError) as exc:
        load_game(str(path))
    assert "line" in str(exc.value)


def test_load_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe" + canonical_bytes([[0], [0]]))
    with pytest.raises(GameParseError):
        load_game(str(path))
    with pytest.raises(GameParseError):
        load_profile(str(path), gen_game(2, 2, 2, seed=15).tree, 2)


def test_load_rejects_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(GameParseError):
        load_game(str(path))
    with pytest.raises(GameParseError):
        load_profile(str(path), gen_game(2, 2, 2, seed=15).tree, 2)


def test_load_rejects_missing_field(tmp_path):
    doc = game_document(demo_constant(2, 1, 2))
    del doc["horizon"]
    path = tmp_path / "nohorizon.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameParseError) as exc:
        load_game(str(path))
    assert "horizon" in str(exc.value)


@pytest.mark.parametrize("edit, message", [
    (lambda node: node.pop("parent"), "missing field 'parent'"),
    (lambda node: node.update(parent="missing"),
     "field 'parent' must be an integer or null"),
], ids=["absent", "the_string_missing"])
def test_load_rejects_missing_or_mistyped_parent(edit, message):
    doc = game_document(demo_constant(2, 1, 2))
    edit(doc["nodes"][1])
    with pytest.raises(GameParseError) as exc:
        game_from_document(doc)
    assert str(exc.value) == f"game document: nodes[1]: {message}"


def test_load_rejects_bad_prob_sum(tmp_path):
    doc = game_document(demo_constant(2, 1, 2))
    doc["nodes"][2]["p"] = 0.4  # children of the root now sum to 0.9
    path = tmp_path / "badsum.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameStructureError) as exc:
        load_game(str(path))
    assert "node 0" in str(exc.value)


def test_load_rejects_uneven_horizon(tmp_path):
    doc = {
        "horizon": 2,
        "players": 2,
        "nodes": [
            {"id": 0, "parent": None, "p": 1.0},
            {"id": 1, "parent": 0, "p": 0.5},
            {"id": 2, "parent": 0, "p": 0.5},
            {"id": 3, "parent": 1, "p": 1.0},
        ],
        "processes": {
            "X": [[0.0] * 4, [0.0] * 4],
            "Q": [[0.5] * 4, [0.5] * 4],
            "Y": [[1.0] * 4, [1.0] * 4],
        },
    }
    path = tmp_path / "uneven.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameStructureError) as exc:
        load_game(str(path))
    assert "leaf" in str(exc.value)


def test_load_rejects_zero_horizon():
    doc = {
        "horizon": 0,
        "players": 2,
        "nodes": [{"id": 0, "parent": None, "p": 1.0}],
        "processes": {"X": [[0.0], [0.0]], "Q": [[0.0], [0.0]],
                      "Y": [[0.0], [0.0]]},
    }
    with pytest.raises(GameStructureError) as exc:
        game_from_document(doc)
    assert "horizon" in str(exc.value)


def test_load_rejects_wrong_process_length():
    doc = game_document(demo_constant(2, 1, 2))
    doc["processes"]["X"][1] = [0.5, 0.5]
    with pytest.raises(GameStructureError) as exc:
        game_from_document(doc)
    assert "X[1]" in str(exc.value)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_nonfinite_payoffs(tmp_path, token):
    doc = game_document(demo_constant(2, 1, 2))
    doc["processes"]["Y"][1][2] = float(token)
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    assert f" {token}" in path.read_text()
    with pytest.raises(GameStructureError) as exc:
        load_game(str(path))
    assert str(exc.value) == (
        f"{path}: processes.Y[1]: node 2: process value "
        f"{float(token)!r} not finite"
    )


def test_load_rejects_misnumbered_nodes():
    doc = game_document(demo_constant(2, 1, 2))
    doc["nodes"][1]["id"] = 5
    with pytest.raises(GameStructureError) as exc:
        game_from_document(doc)
    assert "id" in str(exc.value)


def test_profile_round_trip(tmp_path):
    spec = gen_game(2, 2, 2, seed=15)
    tree = spec.tree
    profile = [canonicalize([1], tree), horizon_stop(tree)]
    path = tmp_path / "profile.json"
    save_profile(profile, str(path))
    loaded = load_profile(str(path), tree, 2)
    assert loaded == profile


def test_profile_rejects_wrong_player_count(tmp_path):
    spec = gen_game(2, 2, 2, seed=15)
    path = tmp_path / "short.json"
    path.write_text("[[0]]")
    with pytest.raises(GameStructureError):
        load_profile(str(path), spec.tree, 2)


def test_profile_rejects_unknown_node(tmp_path):
    spec = gen_game(2, 2, 2, seed=15)
    path = tmp_path / "unknown.json"
    path.write_text("[[0], [99]]")
    with pytest.raises(GameStructureError):
        load_profile(str(path), spec.tree, 2)


M = 1.7976931348623157e308  # the largest float


def _parsed(spec) -> dict:
    """``spec``'s game file as ``json.load`` returns it."""
    return json.loads(canonical_bytes(game_document(spec)))


@settings(max_examples=150, deadline=None)
@given(float_games())
@example(GameSpec(chain_tree(2), *([[-0.0, 5e-324, -M]] * 2,) * 3))
def test_the_document_digest_is_the_specs(spec):
    doc = _parsed(spec)
    assert _document_digest(doc) == game_digest(game_from_document(doc))
    assert _document_digest(doc) == game_digest(spec)


@settings(max_examples=100, deadline=None)
@given(float_games(), st.data())
def test_the_document_digest_declines_other_types(spec, data):
    """An int ``p`` or payoff would be written as a float by the spec, and
    a bool is no game value: the document route refuses both."""
    doc = _parsed(spec)
    nodes = doc["nodes"]
    target = data.draw(st.sampled_from(["p", "parent", "X", "Q", "Y"]))
    if target in ("p", "parent"):
        values = nodes[data.draw(st.integers(target == "parent",
                                             len(nodes) - 1))]
        key = target
    else:
        values = data.draw(st.sampled_from(doc["processes"][target]))
        key = data.draw(st.integers(0, len(values) - 1))
    others = [True, False] + ([] if target == "parent" else [int(values[key])])
    values[key] = data.draw(st.sampled_from(others))
    with pytest.raises(ValueError):
        _document_digest(doc)


# One corruption of a node field: (field, value); a value of ``KeyError``
# deletes the field.
MISSING = KeyError
NODE_VALUES = [MISSING, True, False, None, 0, 1, 2, -1, -3, 0.0, 1.0, 0.5,
               1.5, -0.5, math.nan, math.inf, "1", [0]]
_DEPTH6 = game_document(gen_game(2, 6, 2, seed=21, mode="touching"))


@st.composite
def corrupted_nodes(draw):
    nodes = copy.deepcopy(_DEPTH6["nodes"])
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(nodes) - 1))
        field = draw(st.sampled_from(["id", "parent", "p"]))
        value = draw(st.one_of(
            st.sampled_from(NODE_VALUES),
            # an id out of order, a parent at or after the node, a float id
            st.sampled_from([k - 1, k + 1, k, float(k), k + 0.5]),
        ))
        if value is MISSING:
            nodes[k].pop(field, None)
        else:
            nodes[k][field] = value
    return nodes


def _outcome(call, *args, **kwargs):
    """The exception class and message ``call`` raises, or None."""
    try:
        call(*args, **kwargs)
    except (GameParseError, GameStructureError, TreeError) as exc:
        return type(exc), str(exc)
    return None


def _reference_load(nodes):
    where = "game document"
    parents, probs = reference_node_fields(nodes, where)
    try:
        reference_tree_checks(parents, probs, horizon=6)
    except TreeError as exc:
        raise GameStructureError(f"{where}: {exc}") from exc


@settings(max_examples=400, deadline=None)
@given(corrupted_nodes())
def test_the_loader_names_the_references_first_fault(nodes):
    doc = dict(_DEPTH6, nodes=nodes)
    assert _outcome(game_from_document, doc) == _outcome(_reference_load,
                                                         nodes)
    # the tree checks on their own, with a missing field as None
    parents = [node.get("parent") for node in nodes]
    probs = [node.get("p") for node in nodes]
    assert _outcome(ScenarioTree, parents, probs, horizon=6) == _outcome(
        reference_tree_checks, parents, probs, horizon=6)


# One corruption of a process: a value that is not a number, a bool or
# not finite in one array, or a whole array of the wrong length or kind.
PROCESS_VALUES = ["1", None, True, False, math.nan, math.inf, -math.inf,
                  [0.0], {}, 0, 10**400, 0.5]


@st.composite
def corrupted_documents(draw):
    """``_DEPTH6`` with one process corrupted, and its nodes as
    ``corrupted_nodes`` leaves them or with a rewrite of the root that
    both loaders accept, so that the process fault shows."""
    doc = copy.deepcopy(_DEPTH6)
    if draw(st.booleans()):
        doc["nodes"] = draw(corrupted_nodes())
    else:
        field, value = draw(st.sampled_from(
            [("p", 1), ("p", 1.0), ("parent", None), ("id", 0)]))
        doc["nodes"][0][field] = value
    processes = doc["processes"]
    name = draw(st.sampled_from(["X", "Q", "Y"]))
    i = draw(st.integers(0, 1))
    arr = processes[name][i]
    where = draw(st.sampled_from(["value", "array", "player list"]))
    if where == "value":
        arr[draw(st.integers(0, len(arr) - 1))] = draw(
            st.sampled_from(PROCESS_VALUES))
    elif where == "array":
        processes[name][i] = draw(st.sampled_from(
            [arr[:-1], arr + [0.5], [], "x", 1.0, None, {}]))
    else:
        processes[name] = draw(st.sampled_from(
            [processes[name][:1], processes[name] * 2, arr, "x", None]))
    return doc


def _loaded(load, doc):
    """The spec ``load`` builds, or the class and message it raises."""
    try:
        return load(doc)
    except GameFileError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(corrupted_documents())
def test_the_loader_names_the_prescan_loaders_first_fault(doc):
    assert _loaded(game_from_document, doc) == _loaded(
        prescan_game_from_document, doc)


def test_uncorrupted_nodes_load():
    assert _outcome(game_from_document, _DEPTH6) is None
    assert _outcome(_reference_load, _DEPTH6["nodes"]) is None


def _bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    return str(path), GameParseError


def _invalid_game(tmp_path):
    doc = game_document(demo_constant(2, 1, 2))
    doc["nodes"][2]["p"] = 0.4
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path), GameStructureError


def _good_game(tmp_path):
    path = tmp_path / "good.json"
    save_game(demo_constant(2, 1, 2), str(path))
    return str(path), None


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("make", [_good_game, _bad_json, _invalid_game],
                         ids=["ok", "bad_json", "invalid"])
def test_load_game_leaves_the_collector_as_it_found_it(tmp_path, enabled,
                                                      make):
    path, error = make(tmp_path)
    paused = []
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            load_game(path, _parsed=lambda doc: paused.append(gc.isenabled()))
        except (GameParseError, GameStructureError) as exc:
            assert type(exc) is error
        else:
            assert error is None
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == ([] if error is GameParseError else [False])
