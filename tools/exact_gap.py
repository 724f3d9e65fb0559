"""Exact Nash gaps of a stopping profile, from the documented files alone.

    python tools/exact_gap.py GAME PROFILE_OR_REPORT

GAME is a game file and PROFILE_OR_REPORT a profile file or a run
report (its ``equilibrium.players[].stop_nodes``), as ``docs/format.md``
describes them.  Each stop-set is canonicalized by the profile rule: on
every root-to-leaf path only the first listed node counts, and a path
that meets none stops at its leaf.  Per player the tool prints the
payoff, the best-response value and the gap (best response less
payoff), each computed in ``fractions.Fraction`` and rounded once to a
float.  Every float is dyadic, so reading it as a fraction is exact.

A path's probability is the exact product of its conditional ``p``s,
and a payoff is the sum over leaves of that probability times what the
player collects on the path.  The best-response value is the largest
such payoff over all of the player's stopping times, by backward
induction with an exact max and no tolerance, so no gap is negative.

The tool imports nothing from ``dynkin``: it shares no code with the
solver or the certifiers it judges.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def stop_sets(doc) -> list:
    """The per-player stop-sets of a profile file or a run report."""
    if isinstance(doc, dict):
        players = doc["equilibrium"]["players"]
        return [p["stop_nodes"] for p in sorted(players,
                                                key=lambda p: p["player"])]
    return doc


def exact_gaps(game: dict, profile) -> list:
    """Per player, ``(payoff, best_response, gap)`` as fractions, for the
    game document ``game`` and one stop-set per player."""
    nodes = game["nodes"]
    n = len(nodes)
    parent = [node["parent"] for node in nodes]
    children = [[] for _ in range(n)]
    prob = [Fraction(1)] * n
    for v in range(1, n):
        children[parent[v]].append(v)
        prob[v] = prob[parent[v]] * Fraction(nodes[v]["p"])
    leaves = [v for v in range(n) if not children[v]]
    # Per node, the probability of its leaves: a stop there is paid on
    # every path below it.
    mass = prob[:]
    for v in range(n - 1, -1, -1):
        if children[v]:
            mass[v] = sum(mass[c] for c in children[v])
    if len(profile) != game["players"]:
        raise ValueError(f"profile has {len(profile)} stop-sets for "
                         f"{game['players']} players")
    stops = []  # per player, the stop on each leaf's path
    for stop_set in profile:
        first = _first_marked(parent, stop_set, leaves)
        stops.append([first[leaf] for leaf in leaves])

    out = []
    for i in range(len(profile)):
        x, q, y = ([Fraction(a) for a in game["processes"][k][i]]
                   for k in "XQY")
        # Ids grow along a path, so the opponents' earliest stop on a
        # path is their smallest stop node there.
        rival = [min(s[k] for j, s in enumerate(stops) if j != i)
                 for k in range(len(leaves))]
        pay = sum(prob[leaf] * (x[t] if t < r else q[t] if t == r else y[r])
                  for leaf, t, r in zip(leaves, stops[i], rival))
        cut = _first_marked(parent, rival, leaves)
        value = [None] * n
        for v in range(n - 1, -1, -1):
            a = cut[v]
            if a is None:  # before every rival stop: stop, or go on
                value[v] = max(x[v] * mass[v],
                               sum(value[c] for c in children[v]))
            elif a == v:  # the rivals stop here: stop with them, or not
                end = max(q[v], y[v]) if children[v] else q[v]
                value[v] = end * mass[v]
        out.append((pay, value[0], value[0] - pay))
    return out


def _first_marked(parent: list, marked, leaves: list) -> list:
    """Per node, the first node of ``marked`` on its root path, or None;
    each leaf counts as marked below every other node."""
    n = len(parent)
    flags = [False] * n
    for v in marked:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
            raise ValueError(f"unknown node id {v!r} in stop set")
        flags[v] = True
    for leaf in leaves:
        flags[leaf] = True
    first = [None] * n
    for v in range(n):
        a = first[parent[v]] if v else None
        first[v] = a if a is not None else v if flags[v] else None
    return first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("game", help="game file")
    parser.add_argument("profile", help="profile file or run report")
    args = parser.parse_args(argv)
    with open(args.game, encoding="utf-8") as f:
        game = json.load(f)
    with open(args.profile, encoding="utf-8") as f:
        profile = stop_sets(json.load(f))
    print("player\tpayoff\tbest_response\tgap")
    for i, values in enumerate(exact_gaps(game, profile)):
        print(i, *(repr(float(v)) for v in values), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
