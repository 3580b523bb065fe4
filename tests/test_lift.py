"""Explicit n-fold covers: navigation, kernels, spectra, serialization."""

import json
import re

import numpy as np
import pytest

from liftmix import (
    AnalysisError,
    GraphError,
    Lift,
    apply_kernel,
    generate_uniform_lift,
    lift_from_json,
    lift_stationary,
    lift_to_json,
    lift_transition_matrix,
    mixing_curves,
    parse_graph,
    project_distribution,
    projection_identity_check,
    spectrum_inheritance_check,
    stationary_distribution,
    substream,
    transition_matrix,
)

from conftest import C3B_TEXT, ONE_WAY_TEXT, THETA3_TEXT


def _uniform(g, n, seed):
    return generate_uniform_lift(g, n, substream(seed, "lift", n), seed=seed)


# ---------------------------------------------------------------------------
# construction and navigation
# ---------------------------------------------------------------------------


def test_lift_step_follows_matchings(theta3):
    perm = [2, 0, 1]  # edge e1 matching; e2 and e3 identity
    lift = Lift(theta3, 3, (perm, range(3), range(3)))
    w = theta3.oriented_weight
    for i in range(3):
        # at holding 0, crossing e1+ moves mass from (u, i) to (v, perm[i]),
        # and the identity edges e2+ and e3+ keep the fiber
        mu = np.zeros((2, 3))
        mu[0, i] = 1.0
        want = np.zeros((2, 3))
        want[1, perm[i]] = w[0]
        want[1, i] = w[2] + w[4]
        assert np.allclose(apply_kernel(lift, mu, alpha=0.0), want, rtol=0, atol=1e-15)
        # crossing e1- from (v, perm[i]) inverts the matching
        mu = np.zeros((2, 3))
        mu[1, perm[i]] = 1.0
        want = np.zeros((2, 3))
        want[0, i] = w[1]
        want[0, perm[i]] = w[3] + w[5]
        assert np.allclose(apply_kernel(lift, mu, alpha=0.0), want, rtol=0, atol=1e-15)


#: The functions that take a state, each as a call on one value, with the
#: count of states of a theta3 8-lift.
INDEX_TAKERS = {
    "mixing_curves": (lambda lift, v: mixing_curves(lift, [v]), 16),
    "period": (lambda lift, v: lift.period(v), 16),
    "projection_identity_check": (
        lambda lift, v: projection_identity_check(lift, v, 3), 16),
}


@pytest.mark.parametrize("taker", sorted(INDEX_TAKERS))
def test_every_index_is_checked_by_one_rule(theta3, taker):
    # int() ran start 0 for 0.7 and 1 for True, and fiber 2 for 2.5
    call, size = INDEX_TAKERS[taker]
    lift = Lift(theta3, 8, (range(8),) * 3)
    for value in (0.7, True, 2.5, -1, size):
        with pytest.raises(GraphError, match=re.escape(
                f"index {value!r} is not an integer in 0..{size - 1}")):
            call(lift, value)


def test_a_bool_among_integer_states_is_refused(theta3):
    # numpy reads [0, True] as the integer array [0, 1]
    lift = Lift(theta3, 8, (range(8),) * 3)
    for call in (lambda: mixing_curves(lift, [0, True]), lambda: lift.period((3, False))):
        with pytest.raises(GraphError, match=r"index (True|False) is not an integer"):
            call()


def test_no_states_give_no_periods(theta3):
    lift = Lift(theta3, 8, (range(8),) * 3)
    for empty in ([], np.array([], dtype=float)):
        periods = lift.period(empty)
        assert periods.shape == (0,)


def test_lift_rejects_bad_permutations(theta3):
    with pytest.raises(GraphError):
        Lift(theta3, 3, ([0, 1], [0, 1, 2], [0, 1, 2]))  # wrong length
    with pytest.raises(GraphError):
        Lift(theta3, 3, ([0, 0, 2], [0, 1, 2], [0, 1, 2]))  # repeated image
    with pytest.raises(GraphError):
        Lift(theta3, 3, ([0, 1, 2], [0, 1, 2]))  # one permutation short
    with pytest.raises(GraphError):
        Lift(theta3, 0, ((), (), ()))
    # unchecked, numpy's permutation fails with "array is too big"
    with pytest.raises(GraphError, match="too large"):
        generate_uniform_lift(theta3, 2**61, substream(0, "gen"))


@pytest.mark.parametrize("perm", [[0.7, 1.7], [True, False]], ids=["float", "bool"])
def test_lift_rejects_non_integer_permutations(theta3, perm):
    # a cast to int64 read these as the permutations [0, 1] and [1, 0]
    with pytest.raises(GraphError, match="not a permutation"):
        Lift(theta3, 2, (perm, [0, 1], [0, 1]))


def test_generated_lifts_are_deterministic(theta3):
    l1 = _uniform(theta3, 16, seed=3)
    l2 = _uniform(theta3, 16, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(l1.perms, l2.perms))
    l3 = _uniform(theta3, 16, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(l1.perms, l3.perms))
    assert l1.seed == 3


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_apply_kernel_matches_dense_matrix(asym_theta):
    lift = _uniform(asym_theta, 7, seed=1)
    p = lift_transition_matrix(lift)
    rng = substream(2, "mu")
    mu = rng.random(lift.n_states)
    mu /= mu.sum()
    out = apply_kernel(lift, mu)
    assert np.allclose(out, mu @ p, atol=1e-14)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # alpha override changes laziness
    p0 = lift_transition_matrix(lift, alpha=0.0)
    assert np.allclose(apply_kernel(lift, mu, alpha=0.0), mu @ p0, atol=1e-14)


def test_apply_kernel_rejects_a_mu_of_the_wrong_size(asym_theta):
    # a distribution of the wrong size, or a block of two, is not one
    # distribution on the lift
    lift = _uniform(asym_theta, 4, seed=1)
    size = lift.n_states
    for bad in (np.full(size - 1, 1.0 / size),
                np.full((2, lift.base.n_vertices, lift.n), 1.0 / size)):
        with pytest.raises(AnalysisError, match="entries"):
            apply_kernel(lift, bad)


def test_transition_matrix_rows_sum_to_one(theta3, c3b, pendant):
    for g, n, seed in ((theta3, 6, 0), (c3b, 5, 1), (pendant, 4, 2)):
        lift = _uniform(g, n, seed)
        p = lift_transition_matrix(lift)
        assert p.shape == (lift.n_states, lift.n_states)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0.0).all()


def test_lift_projects_onto_base_chain(theta3):
    # summing the lift kernel over fibers recovers the base kernel
    lift = _uniform(theta3, 8, seed=7)
    p = lift_transition_matrix(lift)
    base_p = transition_matrix(theta3)
    n = lift.n
    for ui in range(2):
        for i in range(n):
            row = p[ui * n + i]
            folded = [row[vi * n: (vi + 1) * n].sum() for vi in range(2)]
            assert np.allclose(folded, base_p[ui], atol=1e-12)


def test_project_distribution_folds_fibers(theta3):
    lift = _uniform(theta3, 8, seed=8)
    mu = np.zeros(lift.n_states)
    mu[3] = 0.25  # (u, 3)
    mu[lift.n] = 0.75  # (v, 0)
    proj = project_distribution(lift, mu)
    assert np.allclose(proj, [0.25, 0.75], atol=1e-15)


def test_lift_stationary_is_one_broadcast_column(asym_theta):
    base_pi = asym_theta.stationary.as_array()
    for n in (1, 7, 1024, 131_072):
        lift = Lift(asym_theta, n, (np.arange(n),) * len(asym_theta.edges))
        pi = lift_stationary(lift)
        assert np.array_equal(pi, np.repeat(base_pi[:, None], n, axis=1) / n)
        # a read-only view of one value per vertex, not a state-sized array
        assert pi.strides[1] == 0 and pi.base.size == asym_theta.n_vertices
        assert not pi.flags.writeable


def test_lift_stationary_is_invariant(asym_theta, pendant):
    for g, n, seed in ((asym_theta, 9, 3), (pendant, 6, 4)):
        lift = _uniform(g, n, seed)
        pi = lift_stationary(lift)
        assert pi.shape == (g.n_vertices, n)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(apply_kernel(lift, pi) - pi)) <= 1e-12
        # equal mass within each fiber, base stationary across fibers
        base_pi = stationary_distribution(g).as_array()
        for ui in range(g.n_vertices):
            assert np.allclose(pi[ui], base_pi[ui] / n, atol=1e-12)


# ---------------------------------------------------------------------------
# spectrum inheritance
# ---------------------------------------------------------------------------


def test_spectrum_inheritance_uniform_lift(theta3):
    lift = _uniform(theta3, 32, seed=9)
    chk = spectrum_inheritance_check(lift)
    assert chk.max_residual <= 1e-10
    eigs = np.array(chk.eigenvalues)
    assert eigs[0] == pytest.approx(1.0, abs=1e-12)
    assert len(eigs) == 2


def test_spectrum_inheritance_bipartite_nonlazy(theta3):
    # at holding probability zero the base chain is bipartite: both +1 and
    # -1 pull back to the lift exactly
    lift = _uniform(theta3, 16, seed=10)
    chk = spectrum_inheritance_check(lift, alpha=0.0)
    eigs = sorted(float(np.real(e)) for e in chk.eigenvalues)
    assert eigs[0] == pytest.approx(-1.0, abs=1e-12)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert chk.max_residual <= 1e-10


def test_spectrum_inheritance_complex_eigenvalues(c3b):
    # the biased cycle's base chain has a conjugate pair of complex
    # eigenvalues; the pulled-back eigenfunctions still satisfy the
    # eigenvalue equation on the lift
    lift = _uniform(c3b, 11, seed=11)
    chk = spectrum_inheritance_check(lift)
    assert chk.max_residual <= 1e-10
    eigs = np.array(chk.eigenvalues, dtype=complex)
    assert np.abs(eigs.imag).max() > 0.1


def test_spectrum_check_reads_the_kernel(theta3):
    # a kernel step that moves the wrong mass along one move shows in the
    # residual of the copied eigenmeasures
    lift = _uniform(theta3, 8, seed=9)
    broken = Lift(theta3, lift.n, lift.perms)
    (k, u, v, w), *rest = broken._moves_by_target
    broken.__dict__["_moves_by_target"] = ((k, u, v, 1.5 * w), *rest)
    assert spectrum_inheritance_check(lift).max_residual <= 1e-10
    assert spectrum_inheritance_check(broken).max_residual > 1e-10


@pytest.mark.parametrize("text, alpha", [
    (THETA3_TEXT, 0.0), (C3B_TEXT, None), (ONE_WAY_TEXT, None),
], ids=["theta3-alpha0", "biased-cycle", "one-way"])
def test_spectrum_check_gives_the_base_eigenvalues(text, alpha):
    # theta3 at holding 0 has eigenvalue -1, the biased cycle a complex
    # pair, and the one-way graph orientations of weight zero
    g = parse_graph(text)
    chk = spectrum_inheritance_check(_uniform(g, 5, seed=18), alpha=alpha)
    assert chk.max_residual <= 1e-10
    left = list(np.linalg.eigvals(transition_matrix(g, alpha=alpha)))
    assert len(chk.eigenvalues) == len(left)
    for lam in chk.eigenvalues:  # equal as multisets
        nearest = min(range(len(left)), key=lambda j: abs(left[j] - lam))
        assert abs(left.pop(nearest) - lam) <= 1e-12
    reals = sorted(z.real for z in chk.eigenvalues)
    assert list(reversed(reals)) == [z.real for z in chk.eigenvalues]


def test_spectrum_check_verifies_against_dense_matrix(asym_theta):
    lift = _uniform(asym_theta, 6, seed=12)
    chk = spectrum_inheritance_check(lift)
    p = lift_transition_matrix(lift)
    full = np.linalg.eigvals(p)
    # every inherited eigenvalue appears in the lift's spectrum
    for lam in np.array(chk.eigenvalues, dtype=complex):
        assert np.min(np.abs(full - lam)) <= 1e-8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_lift_json_round_trip(theta3):
    lift = _uniform(theta3, 10, seed=13)
    text = lift_to_json(lift)
    payload = json.loads(text)
    assert payload["base_hash"] == theta3.digest()
    assert payload["n"] == 10
    assert payload["seed"] == 13
    # permutations are recorded 1-based, keyed by edge id
    assert set(payload["permutations"]) == {"e1", "e2", "e3"}
    assert sorted(payload["permutations"]["e1"]) == list(range(1, 11))
    back = lift_from_json(theta3, text)
    assert back.n == lift.n
    assert all(np.array_equal(a, b) for a, b in zip(back.perms, lift.perms))
    assert back.seed == 13


def test_lift_json_rejects_wrong_base(theta3, asym_theta):
    text = lift_to_json(_uniform(theta3, 4, seed=14))
    with pytest.raises(GraphError) as err:
        lift_from_json(asym_theta, text)
    assert "digest" in str(err.value) or "hash" in str(err.value)


def test_lift_json_rejects_missing_fields(theta3):
    text = lift_to_json(_uniform(theta3, 4, seed=15))
    payload = json.loads(text)
    del payload["permutations"]
    with pytest.raises(GraphError):
        lift_from_json(theta3, json.dumps(payload))
    with pytest.raises(GraphError):
        lift_from_json(theta3, "not json at all")


def test_lift_json_rejects_tampered_permutation(theta3):
    text = lift_to_json(_uniform(theta3, 4, seed=16))
    payload = json.loads(text)
    payload["permutations"]["e1"] = [1, 1, 3, 4]
    with pytest.raises(GraphError):
        lift_from_json(theta3, json.dumps(payload))


# ---------------------------------------------------------------------------
# distribution of the generators
# ---------------------------------------------------------------------------


def test_uniform_generator_covers_all_matchings(theta3):
    # n = 2: each edge's matching is a fair coin; check all 8 outcomes of
    # the triple appear with roughly equal frequency
    counts = {}
    rng = substream(17, "gen")
    for _ in range(2000):
        lift = generate_uniform_lift(theta3, 2, rng)
        key = tuple(int(p[0]) for p in lift.perms)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 8
    freqs = np.array(list(counts.values())) / 2000.0
    tv = 0.5 * np.abs(freqs - 1.0 / 8.0).sum()
    assert tv < 0.1
