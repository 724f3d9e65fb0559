"""Certification layer: best responses, equilibrium and envelope
checks, residual."""

import dataclasses
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynkin.verify
from dynkin import (
    EnumerationCapError,
    EquilibriumCandidate,
    GameError,
    GameSpec,
    NashCertificate,
    ScenarioTree,
    StoppingTime,
    TreeError,
    best_response,
    brute_force_best_response,
    canonicalize,
    count_stopping_times,
    cutoff_obstacle,
    demo_constant,
    enumerate_stopping_times,
    gen_game,
    horizon_stop,
    make_candidate,
    payoff,
    residual_yq,
    run,
    snell_envelope,
    verify_nash,
    verify_streamline,
)
from dynkin.tree import DEFAULT_ENUM_CAP
from helpers import (
    BEYOND,
    chain_tree,
    depth_first_leaves,
    depth_stop,
    min_stop_by_depth,
    one_step_holds,
    random_process,
    random_stop,
    random_tree,
    reference_best_response,
    reference_table_best_response,
    reference_verify_nash,
    reference_verify_streamline,
    relabel,
    strictly_before,
    triple_game,
)


def test_best_response_in_constant_game():
    spec = demo_constant(2, 2, 2)
    hor = horizon_stop(spec.tree)
    value, argmax = best_response(spec, 0, (hor,))
    assert value == 1.0
    assert argmax == hor

    root = canonicalize([0], spec.tree)
    value, argmax = best_response(spec, 0, (root,))
    assert value == 1.0
    assert argmax == root  # everything ties, the earliest stop wins


def test_brute_force_breaks_ties_toward_earliest():
    spec = demo_constant(2, 2, 2)
    root = canonicalize([0], spec.tree)
    value, argmax = brute_force_best_response(spec, 0, (root,))
    assert value == 1.0
    assert argmax == root


def test_tied_best_responses_meet_at_their_pathwise_minimum():
    # Against a rival at the horizon each half of the tree pays as much
    # stopped at its inner node as at its leaves: four times tie.
    tree = ScenarioTree.uniform(2, 2)
    x = (0.25, 0.375, 0.5, 0, 0, 0, 0)
    q = (1, 1, 1, 0.5, 0.25, 0.75, 0.25)
    spec = GameSpec(tree, [x, x], [q, q], [(1,) * 7] * 2)
    others = (horizon_stop(tree),)
    for route in (brute_force_best_response, best_response,
                  reference_table_best_response):
        value, argmax = route(spec, 0, others)
        assert value == 0.4375
        assert argmax.stop_set == {1, 2}


def test_oracle_takes_the_root_on_a_chain_at_the_cap():
    # A chain has one stopping time per node, each stop a lone child's.
    spec = demo_constant(2, 19_999, 1)
    assert count_stopping_times(spec.tree) == DEFAULT_ENUM_CAP
    root = canonicalize([0], spec.tree)
    assert brute_force_best_response(spec, 0, (root,)) == (1.0, root)


def test_brute_force_matches_envelope_route():
    rng = random.Random(33)
    for case in range(25):
        players = 2 + case % 2
        spec = gen_game(players, 1 + case % 4, 2, seed=600 + case,
                        mode=("strict", "touching")[case % 2])
        player = case % players
        others = tuple(
            random_stop(rng, spec.tree) for _ in range(players - 1)
        )
        v_fast, t_fast = best_response(spec, player, others)
        v_brute, t_brute = brute_force_best_response(spec, player, others)
        assert abs(v_fast - v_brute) <= 1e-12
        assert t_fast == t_brute


# Games paired with opponent profiles: seeded games against their
# equilibrium and against random profiles, random games on relabeled
# trees whose leaves are mostly out of depth-first order, the constant
# demo against a root stop (every stopping time ties), and a deep chain.
def _oracle_cases():
    rng = random.Random(36)
    shapes = ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
    cases = []
    for g in range(60):
        depth, branching = shapes[g % len(shapes)]
        spec = gen_game(2 + g % 3, depth, branching, seed=900 + g,
                        mode=("strict", "touching")[g % 2])
        if g % 3 == 0:
            cases.append((spec, run(spec)[0].T_star))
        p = (0.15, 0.4)[g % 2]
        cases.append((spec, tuple(
            random_stop(rng, spec.tree, p) for _ in range(spec.n_players)
        )))
    relabeled = 0
    for g in range(20):
        # uneven branch probabilities, so a leaf mixed up with another
        # one changes the payoff
        tree = relabel(random_tree(rng, depth=2 + g % 2), rng)[0]
        spec = GameSpec(tree, *(
            [random_process(rng, tree) for _ in range(2 + g % 3)]
            for _ in "XQY"
        ))
        relabeled += tree.leaves != depth_first_leaves(tree)
        cases.append((spec, tuple(
            random_stop(rng, spec.tree) for _ in range(spec.n_players)
        )))
    assert relabeled >= 10
    for demo in (demo_constant(2, 2, 2), demo_constant(3, 3, 2)):
        root = canonicalize([0], demo.tree)
        cases.append((demo, (root,) * demo.n_players))
        cases.append((demo, (horizon_stop(demo.tree),) * demo.n_players))
    chain = gen_game(2, 300, 1, seed=990, mode="touching")
    cases.append((chain, (canonicalize([150], chain.tree),) * 2))
    return cases


def test_oracle_matches_the_depth_reference():
    seen = set()
    for spec, profile in _oracle_cases():
        for i in range(spec.n_players):
            others = profile[:i] + profile[i + 1:]
            got = brute_force_best_response(spec, i, others)
            assert got == reference_best_response(spec, i, others)
            rival = min_stop_by_depth(*others).depth_by_leaf
            seen.update(
                (t > r) - (t < r)
                for t, r in zip(got[1].depth_by_leaf, rival)
            )
    # the argmax stops before, with and after the rivals
    assert seen == {-1, 0, 1}


def test_oracle_scores_sums_beyond_float_range_as_payoff_does():
    # The sibling probabilities sum to 1 + 1e-13, so a path-wide M sums
    # beyond the float range, to infinity; payoff and oracle agree.
    big = sys.float_info.max
    tree = ScenarioTree(
        [None, 0, 0], [1.0, 0.5000000000001, 0.4999999999999999]
    )
    spec = triple_game(tree, (big / 2,) * 3, (big,) * 3, (big,) * 3)
    times = enumerate_stopping_times(tree)
    for rival in times:
        values = [payoff(spec, 0, [tau, rival]) for tau in times]
        best, argmax = brute_force_best_response(spec, 0, [rival])
        assert best == max(values) == payoff(spec, 0, [argmax, rival])
    assert math.inf in values


M = sys.float_info.max
UNIFORM_SHAPES = ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
                  (2, 4), (1, 6))
# A top payoff and the payoffs 1e-12 below it, give or take an ulp or two:
# scores on either side of the tie bound, and mixtures that round onto it.
EDGE_TOP = 0.75
EDGE_LOW = EDGE_TOP - dynkin.verify.BRUTE_TIE_TOL
TIE_EDGE = (EDGE_TOP, math.nextafter(EDGE_LOW, 1), EDGE_LOW,
            math.nextafter(EDGE_LOW, 0),
            math.nextafter(math.nextafter(EDGE_LOW, 0), 0))
# Per payoff kind, one value from a seeded generator.  "few" and "three"
# take four and three values, so many times tie; "huge" sits near the
# ends of the float range.
PAYOFFS = {
    "uniform": lambda rng: rng.random(),
    "few": lambda rng: rng.randrange(4) / 4,
    "three": lambda rng: rng.choice((-0.5, 0.25, 1.0)),
    "tie_edge": lambda rng: rng.choice(TIE_EDGE),
    "negative": lambda rng: -0.25 - rng.random(),
    "subnormal": lambda rng: rng.choice((-1, 1)) * rng.randrange(1, 4096)
    * 5e-324,
    "huge": lambda rng: rng.choice((M, -M, M / 2, -M / 2,
                                    M * (2 * rng.random() - 1))),
    "mixed": lambda rng: rng.choice((0.0, -0.0, 5e-324, -2.5e-310, 1e-300,
                                     -1e300, M, -M, rng.random())),
}


@st.composite
def oracle_cases(draw):
    """A game within the cap with 2-4 players and opponents to answer:
    a seeded game, maybe touching, against its equilibrium or a random
    profile, or a uniform, irregular, relabeled, chain or ``BEYOND``
    tree with one payoff kind against random, root or horizon stops.
    Payoffs of the seeded games and of the uniform, few-, three-valued
    and negative kinds are scaled by 2**k for k in [-60, 60], or for k
    in [-1074, -1000], into the subnormal range."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    players = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(
        ("seeded", "uniform", "irregular", "relabeled", "chain", "beyond")))
    scale = math.ldexp(1.0, draw(
        st.one_of(st.integers(-60, 60), st.integers(-1074, -1000))))
    if shape == "seeded":
        depth, branching = draw(st.sampled_from(UNIFORM_SHAPES))
        spec = gen_game(players, depth, branching, rng.randrange(2**31),
                        mode=draw(st.sampled_from(("strict", "touching"))))
        spec = GameSpec(spec.tree, *(
            [[scale * v for v in proc] for proc in procs]
            for procs in (spec.X, spec.Q, spec.Y)
        ))
        if draw(st.booleans()):
            return spec, run(spec)[0].T_star
    else:
        if shape == "uniform":
            tree = ScenarioTree.uniform(*draw(st.sampled_from(UNIFORM_SHAPES)))
        elif shape == "chain":
            tree = chain_tree(rng.randint(1, 40))
        elif shape == "beyond":
            tree = ScenarioTree(*BEYOND)
        else:
            tree = random_tree(rng)
            if shape == "relabeled":
                tree = relabel(tree, rng)[0]
        kind = draw(st.sampled_from(sorted(PAYOFFS)))
        factor = (scale if kind in ("uniform", "few", "three", "negative")
                  else 1.0)
        value = PAYOFFS[kind]
        spec = GameSpec(tree, *(
            [[factor * value(rng) for _ in range(tree.n_nodes)]
             for _ in range(players)]
            for _ in "XQY"
        ))
    stops = draw(st.sampled_from(("random", "root", "horizon")))
    if stops == "random":
        p = draw(st.sampled_from((0.15, 0.4)))
        return spec, tuple(random_stop(rng, spec.tree, p)
                           for _ in range(players))
    tau = (canonicalize([0], spec.tree) if stops == "root"
           else horizon_stop(spec.tree))
    return spec, (tau,) * players


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_oracle_matches_the_table_reference_bit_for_bit(case):
    spec, profile = case
    for i in range(spec.n_players):
        others = profile[:i] + profile[i + 1:]
        value, argmax = brute_force_best_response(spec, i, others)
        want, want_argmax = reference_table_best_response(spec, i, others)
        assert value.hex() == want.hex()
        assert argmax == want_argmax


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-60, 60), st.booleans())
def test_oracle_value_scales_exactly_by_powers_of_two(seed, k, dyadic):
    # Dyadic games: payoffs in sixteenths on trees whose probabilities
    # are 1/2**j, at most 1/16 at a leaf, so distinct scores differ by
    # at least 2**-8.  Otherwise uniform payoffs on an irregular tree.
    rng = random.Random(seed)
    players = rng.randint(2, 4)
    if dyadic:
        depth, branching = rng.choice(((1, 2), (2, 2), (3, 2), (4, 2),
                                       (1, 4), (2, 4)))
        tree = relabel(ScenarioTree.uniform(depth, branching), rng)[0]
        draw = lambda: rng.randrange(16) / 16
    else:
        tree = random_tree(rng)
        draw = rng.random
    procs = [[[draw() for _ in range(tree.n_nodes)] for _ in range(players)]
             for _ in "XQY"]
    spec = GameSpec(tree, *procs)
    scaled = GameSpec(tree, *(
        [[math.ldexp(v, k) for v in proc] for proc in ps] for ps in procs
    ))
    for i in range(players):
        others = tuple(random_stop(rng, tree) for _ in range(players - 1))
        value, argmax = brute_force_best_response(spec, i, others)
        value_k, argmax_k = brute_force_best_response(scaled, i, others)
        assert value_k == math.ldexp(value, k)
        # The absolute BRUTE_TIE_TOL merges distinct scores once their
        # gap falls below it (ROADMAP item 1), so argmaxes are compared
        # above that scale.
        if dyadic and math.ldexp(1.0, k - 8) > dynkin.verify.BRUTE_TIE_TOL:
            assert argmax_k == argmax


def test_oracle_errors_keep_their_order(monkeypatch):
    spec = demo_constant(3, 5, 2)  # 458330 stopping times
    root = canonicalize([0], spec.tree)

    def per_leaf_work(*args):
        raise AssertionError("per-leaf work before the cap check")

    monkeypatch.setattr(dynkin.verify, "_collected", per_leaf_work)
    with pytest.raises(GameError, match="expected 2 opponent"):
        brute_force_best_response(spec, 0, [root])
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_best_response(spec, 0, [root, root])
    assert str(exc.value) == ("tree admits 458330 stopping times, which "
                              "exceeds the enumeration cap of 20000")
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_best_response(spec, 0, [root, root], cap=-5)
    assert str(exc.value).endswith("the enumeration cap of -5")
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_best_response(spec, 0, [root, root], cap=math.nan)
    assert str(exc.value).endswith("the enumeration cap of nan")


def test_best_response_dominates_every_insertion():
    spec = gen_game(2, 3, 2, seed=61)
    rng = random.Random(34)
    others = (random_stop(rng, spec.tree),)
    value, _ = best_response(spec, 0, others)
    for tau in enumerate_stopping_times(spec.tree):
        assert value >= payoff(spec, 0, (tau, others[0])) - 1e-12


def test_verify_nash_constant_game_common_depths():
    spec = demo_constant(3, 2, 2)
    for t0 in (0, 1, 2):
        prof = (depth_stop(spec.tree, t0),) * 3
        cert = verify_nash(spec, prof)
        assert cert.is_nash
        assert all(abs(p.gap) <= 1e-12 for p in cert.players)
        assert all(p.equilibrium_payoff == pytest.approx(1.0, abs=1e-12)
                   for p in cert.players)


def test_verify_nash_rejects_premature_stop():
    t = chain_tree(2)
    spec = triple_game(t, x=(0.5,) * 3, q=(0.6,) * 3, y=(1.0,) * 3)
    prof = (canonicalize([0], t), horizon_stop(t))
    cert = verify_nash(spec, prof)
    assert not cert.is_nash
    gaps = {c.player: c.gap for c in cert.players}
    assert gaps[0] == pytest.approx(0.1, abs=1e-12)
    assert gaps[1] == pytest.approx(0.0, abs=1e-12)


def test_nash_gaps_are_never_meaningfully_negative():
    rng = random.Random(35)
    for case in range(20):
        spec = gen_game(2 + case % 3, 2, 2, seed=700 + case)
        prof = tuple(
            random_stop(rng, spec.tree) for _ in range(spec.n_players)
        )
        cert = verify_nash(spec, prof)
        assert all(c.gap >= -1e-9 for c in cert.players)


def test_streamline_passes_on_converged_runs():
    for seed in range(8):
        spec = gen_game(2 + seed % 3, 3, 2, seed=800 + seed,
                        mode=("strict", "touching")[seed % 2])
        cand, _ = run(spec)
        assert cand.converged
        cert = verify_streamline(spec, cand)
        assert cert.passed, [
            (c.player, c.martingale_ok, c.supermartingale_ok,
             c.dominance_ok, c.hit_equality_ok, c.boundary_ok,
             c.residual_ok)
            for c in cert.players
        ]


def test_streamline_flags_a_forced_early_stop():
    spec = gen_game(2, 2, 2, seed=42)
    cand, _ = run(spec)
    forced = make_candidate((canonicalize([0], spec.tree), cand.T_star[1]))
    # the root must sit strictly before the opponents' cutoff and the
    # witness must exceed X there, otherwise this control is vacuous
    assert 0 not in forced.R_star_i[0].stop_set
    cert = verify_streamline(spec, forced)
    assert not cert.players[0].hit_equality_ok
    assert not cert.passed


STREAMLINE_FIELDS = (
    "martingale_ok",
    "supermartingale_ok",
    "dominance_ok",
    "hit_equality_ok",
    "boundary_ok",
    "residual_ok",
)


def reference_streamline(spec, cand, tol):
    """Streamline booleans per player, rebuilt from the public obstacle
    and envelope with one check per condition."""
    tree = spec.tree
    out = []
    for i in range(spec.n_players):
        t_i, r_i = cand.T_star[i], cand.R_star_i[i]
        w = snell_envelope(tree, cutoff_obstacle(spec, i, r_i)).envelope
        x, q, y = spec.X[i], spec.Q[i], spec.Y[i]
        before = strictly_before(tree, r_i)
        out.append((
            one_step_holds(tree, w, cand.R_star, martingale=True, tol=tol),
            one_step_holds(tree, w, r_i, martingale=False, tol=tol),
            all(w[v] >= x[v] - tol
                for v in range(tree.n_nodes) if before[v]),
            all(abs(w[v] - x[v]) <= tol for v in t_i.stop_set if before[v]),
            all(abs(w[a] - (q[a] if tree.is_leaf(a) else y[a])) <= tol
                for a in r_i.stop_set),
            all(abs(y[v] - q[v]) <= tol
                for v, a in zip(t_i.node_by_leaf, r_i.node_by_leaf)
                if v == a and not tree.is_leaf(v)),
        ))
    return out


def streamline_booleans(cert):
    return [tuple(getattr(c, f) for f in STREAMLINE_FIELDS)
            for c in cert.players]


def test_streamline_matches_a_reference_on_random_profiles():
    rng = random.Random(6161)
    seen = set()
    for g in range(300):
        spec = gen_game(2 + g % 3, rng.randint(1, 4), rng.randint(2, 3),
                        seed=6100 + g, mode=("strict", "touching")[g % 2])
        cand = make_candidate(
            [random_stop(rng, spec.tree, p=rng.choice((0.1, 0.3, 0.6)))
             for _ in range(spec.n_players)]
        )
        # The witness is built as an envelope, so only a negative tol
        # makes its supermartingale, dominance and boundary checks fail.
        for tol in (1e-9, 0.05, 0.3, -0.01):
            got = streamline_booleans(verify_streamline(spec, cand, tol))
            assert got == reference_streamline(spec, cand, tol), (g, tol)
            seen.update(
                (f, b) for row in got for f, b in zip(STREAMLINE_FIELDS, row)
            )
    # every condition both holds and fails somewhere in the mix
    assert seen == {(f, b) for f in STREAMLINE_FIELDS for b in (True, False)}


def test_streamline_when_the_joint_stop_passes_a_cutoff():
    # Hand-built: player 0's cutoff is the root but the joint stop is the
    # horizon, so the martingale check still covers the root, where the
    # frozen witness meets its ternary average only up to rounding.
    tree = ScenarioTree.uniform(1, 3)
    spec = triple_game(tree, x=(0.1,) * 4, q=(0.9,) * 4, y=(0.9,) * 4)
    hor = horizon_stop(tree)
    cand = EquilibriumCandidate(
        T_star=(hor, hor),
        R_star_i=(canonicalize([0], tree), hor),
        R_star=hor,
        rounds_used=0,
        converged=True,
    )
    cert = verify_streamline(spec, cand, tol=0.0)
    assert streamline_booleans(cert) == reference_streamline(spec, cand, 0.0)
    assert not cert.players[0].martingale_ok
    assert cert.players[0].supermartingale_ok


def test_streamline_rejects_times_on_another_tree():
    spec = demo_constant(2, 1, 2)
    cand, _ = run(spec)
    far = horizon_stop(ScenarioTree.uniform(3, 2))
    for bad in (
        dataclasses.replace(cand, R_star=far),
        dataclasses.replace(cand, T_star=(cand.T_star[0], far)),
        dataclasses.replace(cand, R_star_i=(far, cand.R_star_i[1])),
    ):
        with pytest.raises(TreeError, match="different tree"):
            verify_streamline(spec, bad)


@st.composite
def certifier_cases(draw):
    """A uniform, irregular, relabeled or chain tree with 2-4 players and
    ordered payoffs scaled by 2**k, k in [-60, 60], so that the envelope's
    ``EQ_TOL`` hit test flips; a candidate, the solver's or built from a
    random profile, perhaps edited by hand (a joint stop that passes a
    cutoff, cutoffs that are not the others' minimum, or unchecked times
    stopping off a leaf's path); and a tol."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    players = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(("uniform", "irregular", "relabeled",
                                  "chain")))
    if shape == "uniform":
        tree = ScenarioTree.uniform(*draw(st.sampled_from(UNIFORM_SHAPES)))
    elif shape == "chain":
        tree = chain_tree(rng.randint(1, 30))
    else:
        tree = random_tree(rng)
        if shape == "relabeled":
            tree = relabel(tree, rng)[0]
    value = PAYOFFS[draw(st.sampled_from(("uniform", "few", "three")))]
    # Large scales more often: there the envelope's sums round past
    # ``EQ_TOL``, and at a cut node it leaves the obstacle.
    scale = math.ldexp(1.0, draw(st.one_of(st.integers(-60, 60),
                                           st.integers(30, 60))))
    xqy = [[sorted(scale * value(rng) for _ in "XQY")
            for _ in range(tree.n_nodes)] for _ in range(players)]
    spec = GameSpec(tree, *(
        [[node[k] for node in proc] for proc in xqy] for k in range(3)
    ))
    if draw(st.booleans()):
        cand = run(spec)[0]
    else:
        cand = make_candidate([random_stop(rng, tree, rng.random())
                               for _ in range(players)])

    def off_path():
        return StoppingTime(tree, [rng.randrange(tree.n_nodes)
                                   for _ in tree.leaves])

    edit = draw(st.sampled_from(("none", "late_joint", "loose_cutoffs",
                                 "off_path")))
    if edit == "late_joint":
        cand = dataclasses.replace(cand, R_star=random_stop(rng, tree))
    elif edit == "loose_cutoffs":
        cand = dataclasses.replace(cand, R_star_i=tuple(
            random_stop(rng, tree) for _ in range(players)))
    elif edit == "off_path":
        cand = dataclasses.replace(
            cand,
            T_star=tuple(off_path() if rng.random() < 0.5 else t
                         for t in cand.T_star),
            R_star_i=tuple(off_path() if rng.random() < 0.5 else r
                           for r in cand.R_star_i),
            R_star=off_path() if draw(st.booleans()) else cand.R_star,
        )
    return spec, cand, draw(st.sampled_from((0.0, 1e-9, 0.05, -0.01)))


def _exactly(cert):
    """A certificate's fields, nested, and its verdict; floats by hex."""
    def exact(x):
        if isinstance(x, tuple):
            return tuple(map(exact, x))
        return x.hex() if type(x) is float else x

    verdict = (cert.max_gap if isinstance(cert, NashCertificate)
               else cert.passed)
    return exact((dataclasses.astuple(cert), verdict))


@settings(max_examples=300, deadline=None)
@given(certifier_cases())
def test_certifiers_match_the_two_walk_copies_bit_for_bit(case):
    spec, cand, tol = case
    assert _exactly(verify_nash(spec, cand.T_star, tol)) == _exactly(
        reference_verify_nash(spec, cand.T_star, tol))
    assert _exactly(verify_streamline(spec, cand, tol)) == _exactly(
        reference_verify_streamline(spec, cand, tol))


def _raises_alike(check, reference, *args):
    with pytest.raises(Exception) as want:
        reference(*args)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        check(*args)


def test_certifier_errors_match_the_two_walk_copies():
    spec = gen_game(3, 2, 2, seed=3, mode="touching")
    cand, _ = run(spec)
    far = horizon_stop(ScenarioTree.uniform(3, 2))
    T = cand.T_star
    for profile in (T[:2], T + T[:1], (far, *T[1:]), (*T[:2], far)):
        _raises_alike(verify_nash, reference_verify_nash, spec, profile)
    for times in ((far, *T[1:]), (*T[:2], far)):
        _raises_alike(verify_streamline, reference_verify_streamline, spec,
                      dataclasses.replace(cand, T_star=times))


@pytest.mark.parametrize("count", [2, 4])
def test_witness_and_residual_check_the_player_count(count):
    spec = gen_game(3, 2, 2, seed=8, mode="touching")
    cand, _ = run(spec)
    times = (cand.T_star * 2)[:count]
    message = f"^profile has {count} stopping times for 3 players$"
    with pytest.raises(GameError, match=message):
        verify_nash(spec, times)
    for bad in (make_candidate(times),
                dataclasses.replace(cand, R_star_i=make_candidate(
                    times).R_star_i)):
        for check in (verify_streamline, residual_yq):
            with pytest.raises(GameError, match=message):
                check(spec, bad)


def test_residual_zero_for_constant_game():
    spec = demo_constant(2, 2, 2)
    cand, _ = run(spec)
    assert residual_yq(spec, cand) == (0.0, 0.0)
    at_root = make_candidate((canonicalize([0], spec.tree),) * 2)
    assert residual_yq(spec, at_root) == (0.0, 0.0)


def test_residual_detects_costly_simultaneous_stop():
    spec = gen_game(2, 2, 2, seed=42, mode="strict")
    at_root = make_candidate((canonicalize([0], spec.tree),) * 2)
    res = residual_yq(spec, at_root)
    # strict games keep Q below Y at the root, so both players pay
    assert all(r > 0.05 for r in res)


def test_residual_tiny_on_converged_runs():
    for seed in range(10):
        spec = gen_game(2 + seed % 3, 3, 2, seed=900 + seed,
                        mode=("strict", "touching")[seed % 2])
        cand, _ = run(spec)
        assert all(abs(r) <= 1e-12 for r in residual_yq(spec, cand))
