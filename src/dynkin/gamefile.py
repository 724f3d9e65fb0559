"""Reading, writing, and generating game files.

A game file is a JSON document with four top-level keys: ``horizon``,
``players``, ``nodes`` (array of ``{"id", "parent", "p"}`` in id
order, root parent ``null``), and ``processes`` (object with keys
``X``, ``Q``, ``Y``, each an array of per-player node-indexed arrays).
Serialization is canonical (sorted keys, two-space indent, shortest
round-trip floats) so identical games produce identical bytes, and all
writes go through a temp file followed by an atomic rename.

Errors are split into two kinds so callers can map them to distinct
exit codes: :class:`GameParseError` for undecodable or mistyped
documents and :class:`GameStructureError` for well-formed documents
that describe an invalid tree or game.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from typing import Sequence

from .game import GameSpec
from .tree import AdaptedProcess, ScenarioTree, StoppingTime, TreeError, canonicalize


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
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise GameParseError(f"{where}: field {key!r} must be a number")
        return float(val)
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


def load_game(path: str) -> GameSpec:
    """Load and structurally validate a game file."""
    return game_from_document(_read_json(path), where=path)


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

    parents: list = []
    probs: list = []
    for k, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise GameParseError(f"{where}: nodes[{k}] must be an object")
        node_id = _require(entry, "id", int, f"{where}: nodes[{k}]")
        if node_id != k:
            raise GameStructureError(
                f"{where}: nodes[{k}] has id {node_id}, ids must be "
                "0..K-1 in order"
            )
        parent = entry.get("parent", "missing")
        if parent == "missing":
            raise GameParseError(f"{where}: nodes[{k}]: missing field 'parent'")
        if parent is not None and (
            isinstance(parent, bool) or not isinstance(parent, int)
        ):
            raise GameParseError(
                f"{where}: nodes[{k}]: field 'parent' must be an integer "
                "or null"
            )
        p = _require(entry, "p", float, f"{where}: nodes[{k}]")
        parents.append(parent)
        probs.append(p)

    try:
        tree = ScenarioTree(parents, probs, horizon=horizon)
    except TreeError as exc:
        raise GameStructureError(f"{where}: {exc}") from exc

    triples = {}
    for name in ("X", "Q", "Y"):
        arrays = _require(processes, name, list, f"{where}: processes")
        if len(arrays) != players:
            raise GameStructureError(
                f"{where}: processes.{name} has {len(arrays)} players, "
                f"expected {players}"
            )
        procs = []
        for i, arr in enumerate(arrays):
            if not isinstance(arr, list):
                raise GameParseError(
                    f"{where}: processes.{name}[{i}] must be an array"
                )
            if len(arr) != tree.n_nodes:
                raise GameStructureError(
                    f"{where}: processes.{name}[{i}] has {len(arr)} values "
                    f"but the tree has {tree.n_nodes} nodes"
                )
            vals = []
            for v, x in enumerate(arr):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise GameParseError(
                        f"{where}: processes.{name}[{i}][{v}] must be a number"
                    )
                vals.append(float(x))
            try:
                procs.append(AdaptedProcess(tuple(vals)))
            except TreeError as exc:
                raise GameStructureError(
                    f"{where}: processes.{name}[{i}]: {exc}"
                ) from exc
        triples[name] = tuple(procs)

    return GameSpec(tree, triples["X"], triples["Q"], triples["Y"])


def game_document(spec: GameSpec) -> dict:
    tree = spec.tree
    nodes = [
        {"id": v, "parent": tree.parents[v], "p": tree.cond_probs[v]}
        for v in range(tree.n_nodes)
    ]
    return {
        "horizon": tree.horizon,
        "players": spec.n_players,
        "nodes": nodes,
        "processes": {
            "X": [list(p.values) for p in spec.X],
            "Q": [list(p.values) for p in spec.Q],
            "Y": [list(p.values) for p in spec.Y],
        },
    }


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def game_digest(spec: GameSpec) -> str:
    return "sha256:" + hashlib.sha256(
        canonical_bytes(game_document(spec))
    ).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_game(spec: GameSpec, path: str) -> None:
    atomic_write_bytes(path, canonical_bytes(game_document(spec)))


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
    nothing.  Both modes pass the assumption checks by construction.
    """
    if mode not in ("strict", "touching"):
        raise ValueError(f"unknown mode {mode!r}")
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
    return GameSpec(
        tree,
        tuple(AdaptedProcess(tuple(col)) for col in xs),
        tuple(AdaptedProcess(tuple(col)) for col in qs),
        tuple(AdaptedProcess(tuple(col)) for col in ys),
    )


def demo_constant(players: int, depth: int, branching: int) -> GameSpec:
    """Constant game: stopping first pays 1/2, any other end pays 1.

    Every profile in which all players stop at one common depth is an
    equilibrium paying 1 to everyone, so equilibria need not be unique;
    the solver's iteration stays at the horizon."""
    tree = ScenarioTree.uniform(depth, branching)
    half = AdaptedProcess.constant(tree, 0.5)
    one = AdaptedProcess.constant(tree, 1.0)
    return GameSpec(
        tree, (half,) * players, (one,) * players, (one,) * players
    )
