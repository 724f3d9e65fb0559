"""Reading, writing, and generating game files.

A game file is a JSON document with four top-level keys: ``horizon``,
``players``, ``nodes`` (array of ``{"id", "parent", "p"}`` in id
order, root parent ``null``), and ``processes`` (object with keys
``X``, ``Q``, ``Y``, each an array of per-player node-indexed arrays).
Serialization is canonical (sorted keys, two-space indent, shortest
round-trip floats) so identical games produce identical bytes, and a
write to a regular file goes through a temp file and an atomic rename.
Only this module knows the format: :func:`canonical_bytes` writes any
other document, and the game writer writes game files from templates,
for the nodes and for the process arrays; :func:`save_game` writes
those bytes and :func:`game_digest` hashes them in chunks, so the
digest never holds the whole document.  The writer takes a game's
fields, so a parsed document can be hashed too.

Errors are split into two kinds so callers can map them to distinct
exit codes: :class:`GameParseError` for undecodable or mistyped
documents and :class:`GameStructureError` for well-formed documents
that describe an invalid tree or game.  The loader checks the top level
and the node ids as whole arrays, then leaves every parent, probability
and payoff to :class:`~dynkin.tree.ScenarioTree` and
:class:`~dynkin.game.GameSpec`; only when a check fails does one scan
in file order name the first node or process value the file mistypes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import stat
from operator import eq, itemgetter
from typing import Callable, Optional, Sequence

from .game import GameError, GameSpec
from .tree import ScenarioTree, StoppingTime, TreeError, _number, canonicalize


class GameFileError(ValueError):
    pass


class GameParseError(GameFileError):
    """The document cannot be decoded or is missing/mistyping fields."""


class GameStructureError(GameFileError):
    """The document decodes but describes an invalid tree or game."""


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise GameParseError(f"{where}: missing field {key!r}")
    val = doc[key]
    if kind is float:
        num = _number(val)
        if num is None:
            raise GameParseError(f"{where}: field {key!r} must be a number")
        return num
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise GameParseError(f"{where}: field {key!r} must be an integer")
        return val
    if not isinstance(val, kind):
        raise GameParseError(
            f"{where}: field {key!r} must be {kind.__name__}"
        )
    return val


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GameParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, over-long integers, too deep nesting
        raise GameParseError(f"{path}: cannot decode JSON: {exc}") from exc


def load_game(path: str, *, _parsed: Optional[Callable] = None) -> GameSpec:
    """Load and structurally validate a game file.  ``_parsed`` is called
    with the parsed document before the spec is built from it.  The
    cyclic collector is paused meanwhile: neither holds a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = _read_json(path)
        if _parsed is not None:
            _parsed(doc)
        return game_from_document(doc, where=path)
    finally:
        if enabled:
            gc.enable()


def game_from_document(doc, where: str = "game document") -> GameSpec:
    if not isinstance(doc, dict):
        raise GameParseError(f"{where}: top level must be an object")
    horizon = _require(doc, "horizon", int, where)
    players = _require(doc, "players", int, where)
    nodes = _require(doc, "nodes", list, where)
    processes = _require(doc, "processes", dict, where)

    if players < 2:
        raise GameStructureError(f"{where}: players must be >= 2, got {players}")
    if horizon < 1:
        raise GameStructureError(
            f"{where}: horizon must be >= 1, got {horizon}"
        )

    get_id = itemgetter("id")  # no list of ids: it raises peak memory
    try:
        parents, probs = (
            list(map(itemgetter(key), nodes)) for key in ("parent", "p")
        )
        in_order = set(map(type, map(get_id, nodes))) <= {int} and all(
            map(eq, map(get_id, nodes), range(len(nodes))))
    except (KeyError, TypeError):  # a missing field or a non-object node
        in_order = False
    if not in_order:
        _first_fault(nodes, (), where)  # names the node, and raises

    triples = []
    shaped = []  # the process arrays whose shape passed, in file order
    try:
        tree = ScenarioTree(parents, probs, horizon=horizon)
        for name in ("X", "Q", "Y"):
            arrays = _require(processes, name, list, f"{where}: processes")
            if len(arrays) != players:
                raise GameStructureError(
                    f"{where}: processes.{name} has {len(arrays)} players, "
                    f"expected {players}"
                )
            for i, arr in enumerate(arrays):
                at = f"{where}: processes.{name}[{i}]"
                if not isinstance(arr, list):
                    raise GameParseError(f"{at} must be an array")
                if len(arr) != tree.n_nodes:
                    raise GameStructureError(
                        f"{at} has {len(arr)} values but the tree has "
                        f"{tree.n_nodes} nodes")
                shaped.append((at, arr))
            triples.append(arrays)
        return GameSpec(tree, *triples)
    except (TreeError, GameError) as exc:
        _first_fault(nodes, shaped, where)
        raise GameStructureError(f"{where}: {exc}") from exc
    except GameFileError:
        _first_fault(nodes, shaped, where)
        raise


def _first_fault(nodes: list, shaped, where: str) -> None:
    """Raise the first fault of the file in file order: a node that is
    not an object, a missing or mistyped node field or an id out of
    order, then a value that is not a number in the ``shaped`` arrays,
    given as (where, array) pairs."""
    for k, entry in enumerate(nodes):
        at = f"{where}: nodes[{k}]"
        if not isinstance(entry, dict):
            raise GameParseError(f"{at} must be an object")
        node_id = _require(entry, "id", int, at)
        if node_id != k:
            raise GameStructureError(
                f"{at} has id {node_id}, ids must be 0..K-1 in order")
        if "parent" not in entry:
            raise GameParseError(f"{at}: missing field 'parent'")
        parent = entry["parent"]
        if parent is not None and (
                isinstance(parent, bool) or not isinstance(parent, int)):
            raise GameParseError(
                f"{at}: field 'parent' must be an integer or null")
        _require(entry, "p", float, at)
    for at, arr in shaped:
        for v, x in enumerate(arr):
            if _number(x) is None:
                raise GameParseError(f"{at}[{v}] must be a number")


# One C encoder, reused: ``JSONEncoder.encode`` builds one per call.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", ", ", False, False, True)
# array items or nodes per piece: bounds what the digest holds at once,
# and keeps each encoded piece small
_PIECE = 1024


def _canonical(doc, pad: str, out: list) -> list:
    """Append ``json.dumps(doc, sort_keys=True, indent=2)`` to ``out`` in
    pieces (str keys only), and return ``out``; ``pad`` is the line break
    and indent ``doc`` starts at.  Scalars, and arrays not starting with
    a container, go through the C encoder, arrays ``_PIECE`` items at a
    time; a piece with no ``"`` and no inner ``[`` is re-indented at its
    ``", "``, the rest item by item."""
    inner = pad + "  "
    if isinstance(doc, dict) and doc:
        for k, key in enumerate(sorted(doc)):
            out.append(("," if k else "{") + inner
                       + json.encoder.encode_basestring_ascii(key) + ": ")
            _canonical(doc[key], inner, out)
        out.append(pad + "}")
    elif isinstance(doc, (list, tuple)) and doc:
        flat = not isinstance(doc[0], (dict, list, tuple))
        for a in range(0, len(doc), _PIECE):
            piece = doc[a:a + _PIECE]
            text = "".join(_encode(piece, 0)) if flat else ""
            if not flat or '"' in text or "[" in text[1:]:
                for k, item in enumerate(piece, a):
                    out.append(("," if k else "[") + inner)
                    _canonical(item, inner, out)
            else:
                out.append(("," if a else "[") + inner
                           + text[1:-1].replace(", ", "," + inner))
        out.append(pad + "]")
    else:
        out.append("".join(_encode(doc, 0)))
    return out


def canonical_bytes(doc) -> bytes:
    return "".join(_canonical(doc, "\n", []) + ["\n"]).encode("utf-8")


_NODE = '\n    {\n      "id": %d,\n      "p": %r,\n      "parent": %s\n    }'


def _game_chunks(horizon, players, parents, probs, X, Q, Y):
    """Yield ``canonical_bytes`` of the game file with these fields as
    text pieces, ``_PIECE`` nodes or values at a time.  Nodes and process
    arrays come from templates (``%r`` and ``repr`` give the float text
    ``json`` writes); :func:`_canonical` serves other documents only.  As
    dicts through it, the 131,071 nodes of a depth-16 binary tree take 5
    to 9 times as long."""
    yield '{\n  "horizon": %d,\n  "nodes": [' % horizon
    for a in range(0, len(parents), _PIECE):
        yield ("," if a else "") + ",".join([
            _NODE % (v, probs[v], "null" if parents[v] is None else parents[v])
            for v in range(a, min(a + _PIECE, len(parents)))
        ])
    yield '\n  ],\n  "players": %d,\n  "processes": {' % players
    for name, arrays in (("Q", Q), ("X", X), ("Y", Y)):
        yield ("" if name == "Q" else ",") + '\n    "%s": [' % name
        for i, values in enumerate(arrays):
            yield ("," if i else "") + "\n      ["
            for a in range(0, len(values), _PIECE):
                yield ("," if a else "") + "\n        " + ",\n        ".join(
                    map(repr, values[a:a + _PIECE]))
            yield "\n      ]"
        yield "\n    ]"
    yield "\n  }\n}\n"


def _spec_fields(spec: GameSpec) -> tuple:
    tree = spec.tree
    return (tree.horizon, spec.n_players, tree.parents, tree.cond_probs,
            spec.X, spec.Q, spec.Y)


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return "sha256:" + digest.hexdigest()


def game_digest(spec: GameSpec) -> str:
    return _sha256(_game_chunks(*_spec_fields(spec)))


def _document_digest(doc) -> str:
    """``game_digest`` of the spec built from ``doc``, a parsed game file.
    Raises unless every value has the type the spec keeps it as (an int
    payoff, say, would become a float)."""
    horizon, players, nodes = doc["horizon"], doc["players"], doc["nodes"]
    parents = list(map(itemgetter("parent"), nodes))
    probs = list(map(itemgetter("p"), nodes))
    X, Q, Y = (doc["processes"][name] for name in ("X", "Q", "Y"))
    if not (type(horizon) is type(players) is int
            and set(map(type, parents)) <= {int, type(None)}
            and set(map(type, probs)) <= {float}
            and all(set(map(type, values)) <= {float}
                    for arrays in (X, Q, Y) for values in arrays)):
        raise ValueError("a game value is not of the type the spec keeps")
    return _sha256(_game_chunks(horizon, players, parents, probs, X, Q, Y))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.  A
    symlink stays a link and its target gets the bytes; anything that
    exists but is not a regular file (a FIFO, a device) is written in
    place instead of replaced."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:  # nothing there yet, or a dangling link
        regular = True
    if not regular:
        with open(path, "wb") as fh:
            fh.write(data)
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory = os.path.dirname(os.path.abspath(target))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        # "x" never opens an existing file, and the mode is what open()
        # gives any new file, 0o666 less the umask (mkstemp's is 0o600)
        fh = open(tmp, "xb")
    except OSError as exc:
        # name the caller's path, not the temp file that was never made
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_game(spec: GameSpec, path: str) -> None:
    text = "".join(_game_chunks(*_spec_fields(spec)))
    atomic_write_bytes(path, text.encode("utf-8"))


def load_profile(path: str, tree: ScenarioTree, players: int) -> list[StoppingTime]:
    """Load a stopping profile: a JSON array of per-player stop-node
    arrays.  Each entry is canonicalized against the tree."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise GameParseError(f"{path}: top level must be an array")
    if len(doc) != players:
        raise GameStructureError(
            f"{path}: profile has {len(doc)} entries for {players} players"
        )
    out = []
    for i, raw in enumerate(doc):
        if not isinstance(raw, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in raw
        ):
            raise GameParseError(
                f"{path}: profile[{i}] must be an array of node ids"
            )
        try:
            out.append(canonicalize(raw, tree))
        except TreeError as exc:
            raise GameStructureError(f"{path}: profile[{i}]: {exc}") from exc
    return out


def save_profile(profile: Sequence[StoppingTime], path: str) -> None:
    doc = [sorted(tau.stop_set) for tau in profile]
    atomic_write_bytes(path, canonical_bytes(doc))


def gen_game(
    players: int,
    depth: int,
    branching: int,
    seed: int,
    mode: str = "strict",
    gap: float = 0.1,
    touch_frac: float = 0.2,
) -> GameSpec:
    """Seeded random game on a uniform tree.

    In ``strict`` mode every node satisfies X < Q < Y with margins of
    at least ``gap``.  In ``touching`` mode a seeded fraction of nodes
    (about ``touch_frac``) additionally has Q raised to Y for every
    player, exercising the boundary where simultaneous stops cost
    nothing.  Both modes pass the assumption checks by construction,
    which needs a finite ``gap >= 0``; ``touch_frac`` lies in [0, 1].
    """
    if mode not in ("strict", "touching"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= gap < math.inf:  # NaN fails too
        raise GameError(f"gap must be finite and at least 0, got {gap!r}")
    if not 0 <= touch_frac <= 1:
        raise GameError(f"touch_frac must be in [0, 1], got {touch_frac!r}")
    rng = random.Random(seed)
    tree = ScenarioTree.uniform(depth, branching)
    n = tree.n_nodes
    xs = [[0.0] * n for _ in range(players)]
    qs = [[0.0] * n for _ in range(players)]
    ys = [[0.0] * n for _ in range(players)]
    for v in range(n):
        for i in range(players):
            x = rng.random()
            q = x + gap + rng.random()
            y = q + gap + rng.random()
            xs[i][v] = x
            qs[i][v] = q
            ys[i][v] = y
        if mode == "touching" and rng.random() < touch_frac:
            for i in range(players):
                qs[i][v] = ys[i][v]
    return GameSpec(tree, xs, qs, ys)


def demo_constant(players: int, depth: int, branching: int) -> GameSpec:
    """Constant game: stopping first pays 1/2, any other end pays 1.

    Every profile in which all players stop at one common depth is an
    equilibrium paying 1 to everyone, so equilibria need not be unique;
    the solver's iteration stays at the horizon."""
    tree = ScenarioTree.uniform(depth, branching)
    half = (0.5,) * tree.n_nodes
    one = (1.0,) * tree.n_nodes
    return GameSpec(
        tree, (half,) * players, (one,) * players, (one,) * players
    )
