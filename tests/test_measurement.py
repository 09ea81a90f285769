import numpy as np
import pytest

from decolab.measurement import (
    ImpossibleOutcomeError,
    KrausSet,
    Projector,
    born_probability,
    collapse_sample,
    kraus_update,
    luders_update,
    outcome_distribution,
    povm_probabilities,
    premeasure_cnot,
    sample_outcomes,
    validate_kraus,
)
from decolab.states import BasisSpec, DensityMatrix, StateVector, _block_items

rng = np.random.default_rng(4004)

UP = StateVector((2,), [1.0, 0.0])
DOWN = StateVector((2,), [0.0, 1.0])


def random_state(dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector((dim,), amps / np.linalg.norm(amps))


def random_density(dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix((dim,), mat / np.trace(mat))


# ------------------------------------------------------------ premeasurement


def test_premeasure_basis_states():
    # system up leaves the pointer up; system down flips it
    up_out = premeasure_cnot(UP, UP)
    np.testing.assert_allclose(up_out.amps, [1, 0, 0, 0], atol=1e-15)
    down_out = premeasure_cnot(DOWN, UP)
    np.testing.assert_allclose(down_out.amps, [0, 0, 0, 1], atol=1e-15)


def test_premeasure_superposition_gives_bell_pair():
    plus = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    out = premeasure_cnot(plus, UP)
    np.testing.assert_allclose(out.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    from decolab.states import reduced_density

    for keep in (0, 1):
        np.testing.assert_allclose(
            reduced_density(out, keep).mat, np.eye(2) / 2, atol=1e-14
        )


def test_premeasure_preserves_inner_products():
    for _ in range(10):
        s1, s2 = random_state(2), random_state(2)
        lhs = premeasure_cnot(s1, UP).overlap(premeasure_cnot(s2, UP))
        assert abs(lhs - s1.overlap(s2)) < 1e-12


def test_premeasure_requires_ready_apparatus():
    with pytest.raises(ValueError):
        premeasure_cnot(UP, DOWN)


# ------------------------------------------------------------ Born rule


def test_born_probability_identity_and_orthogonal():
    rho = random_density(3)
    assert born_probability(rho, Projector(np.eye(3))) == pytest.approx(1.0)
    zero = StateVector((2,), [1.0, 0.0]).density()
    p1 = Projector.onto(np.array([[0.0], [1.0]]))
    assert born_probability(zero, p1) == 0.0


def test_born_probability_dephased_diagonal_is_time_independent():
    # the projector onto |up> reads the diagonal entry |a|^2 whatever r is
    a, b = 0.6, 0.8
    p_up = Projector.onto(np.array([[1.0], [0.0]]))
    for r in (1.0, 0.5 - 0.3j, 0.0):
        mat = np.array([[a ** 2, a * b * r], [a * b * np.conj(r), b ** 2]])
        assert born_probability(DensityMatrix((2,), mat), p_up) == pytest.approx(a ** 2)


def test_outcome_distribution_full_basis():
    psi = random_state(4)
    basis = BasisSpec(0, np.eye(4))
    probs = outcome_distribution(
        StateVector((2, 2), psi.amps), basis
    )
    np.testing.assert_allclose(probs, np.abs(psi.amps) ** 2, atol=1e-14)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [3, 8])
def test_full_space_basis_matches_the_whole_vector_reference(d):
    # reference: U^dag psi over the whole vector; the one-factor contraction
    # may sum in another order, so allow d rounding steps per probability
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    psi = random_state(d)
    basis = BasisSpec(0, q)
    want = np.abs(q.conj().T @ psi.amps) ** 2
    np.testing.assert_allclose(
        outcome_distribution(psi, basis), want, rtol=0, atol=4 * d * np.finfo(float).eps
    )
    rec = collapse_sample(psi, basis, rng_seed=3)
    u = q[:, rec.outcome]
    np.testing.assert_allclose(rec.post_state.mat, np.outer(u, u.conj()), atol=1e-14)


# ------------------------------------------------------------ sampling


def test_collapse_sample_deterministic_outcome():
    rec = collapse_sample(UP, BasisSpec(0, np.eye(2)), rng_seed=0)
    assert rec.outcome == 0
    assert rec.probability == 1.0
    np.testing.assert_allclose(rec.post_state.mat, UP.density().mat, atol=1e-15)


def test_collapse_sample_probability_is_exact_weight():
    psi = StateVector((2,), [0.6, 0.8])
    for seed in range(6):
        rec = collapse_sample(psi, BasisSpec(0, np.eye(2)), rng_seed=seed)
        assert rec.probability in (pytest.approx(0.36), pytest.approx(0.64))


def test_collapse_sample_replays_with_same_seed():
    psi = random_state(4)
    psi = StateVector((2, 2), psi.amps)
    basis = BasisSpec(1, np.eye(2))
    r1 = collapse_sample(psi, basis, rng_seed=77)
    r2 = collapse_sample(psi, basis, rng_seed=77)
    assert r1.outcome == r2.outcome
    np.testing.assert_array_equal(r1.post_state.mat, r2.post_state.mat)


def test_collapse_sample_subsystem_post_state():
    # measuring the first qubit of a Bell pair collapses the second with it
    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    rec = collapse_sample(bell, BasisSpec(0, np.eye(2)), rng_seed=5)
    i = rec.outcome
    want = np.zeros((4, 4))
    want[3 * i, 3 * i] = 1.0  # |00><00| or |11><11|
    np.testing.assert_allclose(rec.post_state.mat, want, atol=1e-14)
    assert rec.probability == pytest.approx(0.5)


def test_sample_outcomes_frequencies_within_three_sigma():
    psi = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    n = 10 ** 4
    counts = sample_outcomes(psi, BasisSpec(0, np.eye(2)), n, rng_seed=123)
    assert counts.sum() == n
    sigma = np.sqrt(n * 0.25)
    assert abs(counts[0] - n / 2) < 3 * sigma


# ------------------------------------------------------------ projective updates


def test_luders_plus_state_onto_zero():
    plus = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    p0 = Projector.onto(np.array([[1.0], [0.0]]))
    out = luders_update(plus.density(), p0)
    np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-14)


def test_luders_three_level_hand_example():
    # psi = (1,1,1)/sqrt(3) projected onto span{e0, e1} renormalizes to
    # (1,1,0)/sqrt(2)
    psi = StateVector((3,), np.ones(3) / np.sqrt(3))
    proj = Projector.onto(np.eye(3)[:, :2])
    out = luders_update(psi.density(), proj)
    want_vec = np.array([1, 1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(out.mat, np.outer(want_vec, want_vec), atol=1e-14)


def test_luders_is_idempotent():
    rho = random_density(5)
    proj = Projector.onto(np.eye(5)[:, :3])
    once = luders_update(rho, proj)
    twice = luders_update(once, proj)
    np.testing.assert_allclose(once.mat, twice.mat, atol=1e-12)


def test_luders_preserves_relative_probabilities_in_range():
    # Q supported inside range(P) and commuting with it: the conditional
    # probability is the prior ratio Tr[Q rho] / Tr[P rho]
    rho = random_density(6)
    proj = Projector.onto(np.eye(6)[:, :4])
    sub = Projector.onto(np.eye(6)[:, :2])
    post = luders_update(rho, proj)
    want = born_probability(rho, sub) / born_probability(rho, proj)
    assert abs(born_probability(post, sub) - want) < 1e-10


def test_luders_impossible_outcome_raises():
    zero = StateVector((3,), [1.0, 0.0, 0.0]).density()
    proj = Projector.onto(np.eye(3)[:, 2:])
    with pytest.raises(ImpossibleOutcomeError):
        luders_update(zero, proj)


# ------------------------------------------------------------ Kraus families


def projective_pair(dim, k):
    p = Projector.onto(np.eye(dim)[:, :k])
    q = Projector(np.eye(dim) - p.mat)
    return p, KrausSet([p.mat, q.mat], labels=["in", "out"])


def test_povm_probabilities_projective_pair_matches_born():
    rho = random_density(4)
    p, kset = projective_pair(4, 2)
    probs = povm_probabilities(rho, kset)
    assert probs[0] == pytest.approx(born_probability(rho, p), abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_kraus_update_projective_pair_matches_luders():
    rho = random_density(4)
    p, kset = projective_pair(4, 2)
    rec = kraus_update(rho, kset, 0)
    np.testing.assert_allclose(rec.post_state.mat, luders_update(rho, p).mat, atol=1e-12)
    assert rec.probability == pytest.approx(born_probability(rho, p), abs=1e-12)


def test_kraus_update_post_state_is_valid_density():
    # random complete family built by normalizing with S^{-1/2}
    raws = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4)]
    s = sum(m.conj().T @ m for m in raws)
    w, v = np.linalg.eigh(s)
    inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
    kset = KrausSet([m @ inv_sqrt for m in raws])
    rho = random_density(3)
    probs = povm_probabilities(rho, kset)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    for i in range(len(kset)):
        rec = kraus_update(rho, kset, i)
        post = rec.post_state
        assert abs(np.trace(post.mat) - 1.0) < 1e-10
        np.testing.assert_allclose(post.mat, post.mat.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(post.mat).min() > -1e-10


def test_kraus_update_impossible_outcome_raises():
    _, kset = projective_pair(3, 1)
    rho = StateVector((3,), [1.0, 0.0, 0.0]).density()
    with pytest.raises(ImpossibleOutcomeError):
        kraus_update(rho, kset, 1)


def test_single_rank_one_kraus_resets_state():
    # a lone |phi><phi|-type operator maps every input onto |phi>
    phi = random_state(4).amps
    kset = KrausSet([np.outer(phi, phi.conj())], completeness_tol=None)
    rho = random_density(4)
    rec = kraus_update(rho, kset, 0)
    np.testing.assert_allclose(rec.post_state.mat, np.outer(phi, phi.conj()), atol=1e-12)


def test_validate_kraus_reports_never_raises():
    p, kset = projective_pair(3, 2)
    good = validate_kraus(kset)
    assert good.passed and good.deviation < 1e-14
    lone = KrausSet([p.mat], completeness_tol=None)
    bad = validate_kraus(lone)
    assert not bad.passed and bad.deviation == pytest.approx(1.0)


def test_kraus_set_constructor_enforces_completeness():
    p, _ = projective_pair(3, 2)
    with pytest.raises(ValueError):
        KrausSet([p.mat])  # alone it is not complete


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("tol", [1e-10, None])
def test_kraus_set_rejects_non_finite_operators(bad, tol):
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    ops[1][0, 1] = bad
    with pytest.raises(ValueError):
        KrausSet(ops, completeness_tol=tol)
    with pytest.raises(ValueError):
        KrausSet.from_dict(
            {"shape": [2, 2], "completeness_tol": tol,
             "operators": [[[z.real, z.imag] for z in m.reshape(-1)] for m in ops]}
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projector_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        Projector(np.diag([1.0, bad]))
    with pytest.raises(ValueError):
        Projector.onto(np.array([[1.0], [bad]]))


def test_kraus_set_serialization_round_trip():
    raws = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    s = sum(m.conj().T @ m for m in raws)
    w, v = np.linalg.eigh(s)
    kset = KrausSet(
        [m @ (v @ np.diag(w ** -0.5) @ v.conj().T) for m in raws],
        labels=["x", "y", "z"],
    )
    again = KrausSet.from_dict(kset.to_dict())
    assert again.labels == kset.labels
    assert again.completeness_tol == kset.completeness_tol
    for m1, m2 in zip(again.operators, kset.operators):
        np.testing.assert_array_equal(m1, m2)


def test_kraus_set_from_dict_tolerance_override():
    p, _ = projective_pair(2, 1)
    lone = KrausSet([p.mat], completeness_tol=None)
    data = lone.to_dict()
    with pytest.raises(ValueError):
        KrausSet.from_dict(data, completeness_tol=1e-10)


# ------------------------------------------------------------ array-backed KrausSet


def loop_completeness(ops):
    acc = np.zeros((ops[0].shape[1],) * 2, dtype=complex)
    for m in ops:
        acc += m.conj().T @ m
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def loop_povm(rho, ops):
    return np.array([max(float(np.trace(m.conj().T @ m @ rho).real), 0.0) for m in ops])


def loop_update(rho, m):
    sigma = m @ rho @ m.conj().T
    p = float(np.trace(sigma).real)
    return (sigma + sigma.conj().T) / (2.0 * p), min(p, 1.0)


@pytest.mark.parametrize("n_ops", [1, 2, 49, 300])
@pytest.mark.parametrize("d_out, d_in", [(4, 4), (3, 7), (7, 3), (20, 20)])
def test_kraus_set_matches_per_operator_reference(n_ops, d_out, d_in):
    local = np.random.default_rng([n_ops, d_out, d_in])
    ops = local.normal(size=(n_ops, d_out, d_in)) + 1j * local.normal(size=(n_ops, d_out, d_in))
    ops /= np.sqrt(np.linalg.norm(sum(m.conj().T @ m for m in ops), 2))
    kset = KrausSet(list(ops), completeness_tol=None)
    rho = random_density(d_in)
    assert abs(kset.completeness_deviation() - loop_completeness(ops)) <= 1e-13
    np.testing.assert_allclose(povm_probabilities(rho, kset), loop_povm(rho.mat, ops),
                               rtol=0, atol=1e-13)
    for i in sorted({0, n_ops // 2, n_ops - 1}):
        rec = kraus_update(rho, kset, i)
        want_mat, want_p = loop_update(rho.mat, ops[i])
        np.testing.assert_allclose(rec.post_state.mat, want_mat, rtol=0, atol=1e-13)
        assert abs(rec.probability - want_p) <= 1e-13
        assert rec.post_state.dims == (d_out,)


@pytest.mark.parametrize(
    "operators, labels, message",
    [
        ([np.eye(2), np.eye(3)], None, "share one shape"),
        ([np.eye(2), np.ones((2, 3))], None, "share one shape"),
        ([np.ones(2)], None, "must be matrices"),
        (np.eye(2), None, "must be matrices"),
        ([np.ones((1, 2, 2))], None, "must be matrices"),
        ([np.zeros((0, 2))], None, "must be matrices"),
        ([], None, "at least one operator"),
        (np.zeros((0, 2, 2)), None, "at least one operator"),
        ([np.eye(2)], ["a", "b"], "matching length"),
        ([np.eye(2), np.zeros((2, 2))], ["a"], "matching length"),
    ],
)
def test_kraus_set_constructor_rejects_malformed_input(operators, labels, message):
    with pytest.raises(ValueError, match=message):
        KrausSet(operators, labels=labels, completeness_tol=None)


def test_kraus_set_operators_are_a_read_only_copy():
    source = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    mats = [source[0].copy(), source[1].copy()]
    for given in (source, mats):
        kset = KrausSet(given, labels=["up", "down"])
        assert len(kset.operators) == len(kset) == 2
        assert kset.operators.shape == (2, 2, 2)
        np.testing.assert_array_equal(kset.operators[1], source[1])
        assert [m.shape for m in kset.operators] == [(2, 2), (2, 2)]
        with pytest.raises(ValueError):
            kset.operators[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            kset.operators[1][1, 1] = 5.0
        with pytest.raises(AttributeError):
            kset.operators = np.zeros((2, 2, 2))
        before = kset.operators.copy()
        if isinstance(given, np.ndarray):
            given[0, 0, 0] = 7.0
        else:
            given[0][0, 0] = 7.0
        np.testing.assert_array_equal(kset.operators, before)


def one_shot_counts(state, basis, n_shots, seed):
    """Reference: all Born draws taken as one array."""
    probs = outcome_distribution(state, basis)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(probs)
    draws = np.searchsorted(cum, rng.random(int(n_shots)) * cum[-1], side="right")
    draws = np.minimum(draws, len(probs) - 1)
    return np.bincount(draws, minlength=len(probs))


def test_collapse_sample_draws_the_outcome_of_a_one_shot_sample():
    # one inverse-CDF draw serves both: the first uniform of the same stream
    joint = StateVector((2, 2), random_state(4).amps)
    for state, basis in ((random_state(4), BasisSpec(0, np.eye(4))),
                         (joint, BasisSpec(1, np.eye(2)))):
        for seed in range(200):
            counts = sample_outcomes(state, basis, 1, seed)
            assert counts[collapse_sample(state, basis, seed).outcome] == 1


def test_sample_outcomes_in_blocks_match_one_shot_draw():
    state = random_state(4)
    basis = BasisSpec(0, np.eye(4))
    block = _block_items(16)  # the shots of one block of draws
    for shots in (1, block - 1, block, block + 1, 3 * block + 7):
        for seed in (0, 123, np.random.SeedSequence(99)):
            got = sample_outcomes(state, basis, shots, seed)
            np.testing.assert_array_equal(got, one_shot_counts(state, basis, shots, seed))
            assert got.sum() == shots


@pytest.mark.parametrize("data", [[], "shape", 3, None])
def test_kraus_from_dict_rejects_a_non_object(data):
    with pytest.raises(ValueError, match="JSON object"):
        KrausSet.from_dict(data)


def _kraus_data(**fields):
    up = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    down = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    return {"shape": [2, 2], "operators": [up, down], **fields}


@pytest.mark.parametrize("labels", [
    "ud", [[1, 2], {"x": 1}], [True, False], ["up", None], {"up": 0, "down": 1}, 2,
], ids=["string", "containers", "booleans", "null-entry", "object", "number"])
def test_kraus_from_dict_rejects_labels_that_are_not_an_array_of_strings_and_numbers(labels):
    with pytest.raises(ValueError, match="labels"):
        KrausSet.from_dict(_kraus_data(labels=labels))


@pytest.mark.parametrize("fields, labels", [
    ({}, (0, 1)), ({"labels": None}, (0, 1)), ({"labels": ["up", 2]}, ("up", 2)),
    ({"labels": [0.5, "down"]}, (0.5, "down")),
], ids=["missing", "null", "string-and-int", "float-and-string"])
def test_kraus_from_dict_takes_missing_null_or_an_array_of_strings_and_numbers(fields, labels):
    assert KrausSet.from_dict(_kraus_data(**fields)).labels == labels


@pytest.mark.parametrize("fields, field", [
    ({"completeness_tol": True}, "completeness_tol"),
    ({"completeness_tol": "1e-3"}, "completeness_tol"),
    ({"completeness_tol": [1e-3]}, "completeness_tol"),
    # complete 1 x 2 operators: a 1 where true stood would load
    ({"shape": [True, 2], "operators": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, "shape"),
    ({"shape": [2, 2.5]}, "shape"),
    ({"shape": [0, 2]}, "shape"),
    ({"shape": [2]}, "shape"),
    ({"shape": 2}, "shape"),
    ({"shape": None}, "shape"),
    ({"operators": None}, "operators"),
    ({"operators": 3}, "operators"),
    ({"operators": [[[True, 0.0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]},
     "operators"),
    ({"operators": [[["1", 0.0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]},
     "operators"),
    ({"operators": [[[1.0, 0.0, 0.0], [0, 0], [0, 0], [0, 0]]]}, "operators"),
    ({"operators": [3]}, "operators"),
    ({"operators": [[1.0, 0.0]]}, "operators"),
], ids=["true-tolerance", "string-tolerance", "array-tolerance", "boolean-shape",
        "fractional-shape", "zero-shape", "short-shape", "number-shape", "null-shape",
        "null-operators", "number-operators", "boolean-entry", "string-entry", "triple-entry",
        "number-operator", "unpaired-entries"])
def test_kraus_from_dict_rejects_fields_of_the_wrong_type_naming_them(fields, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        KrausSet.from_dict(_kraus_data(**fields))


@pytest.mark.parametrize("field", ["shape", "operators"])
def test_kraus_from_dict_names_a_missing_field(field):
    data = _kraus_data()
    del data[field]
    with pytest.raises(ValueError, match=f"^{field} must"):
        KrausSet.from_dict(data)


@pytest.mark.parametrize("fields, tol", [
    ({}, 1e-10), ({"completeness_tol": None}, None), ({"completeness_tol": 0}, 0),
    ({"completeness_tol": 1e-6}, 1e-6), ({"shape": [2.0, 2]}, 1e-10),
], ids=["missing-tolerance", "null-tolerance", "integer-tolerance", "float-tolerance",
        "integral-float-shape"])
def test_kraus_from_dict_takes_numbers_and_null(fields, tol):
    kset = KrausSet.from_dict(_kraus_data(**fields))
    assert kset.completeness_tol == tol and kset.operators.shape == (2, 2, 2)


def test_kraus_constructor_keeps_any_labels():
    ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert KrausSet(ops, labels="ud").labels == ("u", "d")
    assert KrausSet(ops, labels=[True, (1, 2)]).labels == (True, (1, 2))
