import re
import signal

import numpy as np
import pytest

from qlat import (
    HermitianOperator,
    Ket,
    Observable,
    Projection,
    SeededRng,
    TolerancePolicy,
    compatibility_verdict,
    haar_random_ket,
    leq,
    matrices_close,
    sequential_disagreements,
)
from qlat import measurement
from qlat.experiments import _gapped_values, _gaussian_matrix, _observable_pairs
from qlat.measurement import (
    _MC_BLOCK,
    _check_unit_rows,
    _draw_block,
    _measure_rows,
    _padded_stacks,
    _sandwich_defects,
    _sandwich_residuals,
    _trial_floor,
    criterion_holds,
)

from oracles import born_probability, interposition_residual, measure, sequence_symmetry_residual


@pytest.fixture(scope="module")
def sigma_z():
    return Observable.from_operator(np.diag([1.0, -1.0]).astype(complex))


@pytest.fixture(scope="module")
def sigma_x():
    return Observable.from_operator(np.array([[0, 1], [1, 0]], dtype=complex))


@pytest.fixture(scope="module")
def diag_a():
    return Observable.from_operator(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def diag_b():
    return Observable.from_operator(np.diag([3.0, 4.0]))


class TestObservable:
    def test_spectrum_is_ascending(self, sigma_z):
        assert sigma_z.eigenvalues == (-1.0, 1.0)

    def test_rejects_unsorted_spectrum(self, sigma_z):
        flipped = tuple(reversed(sigma_z.eigenvalues))
        with pytest.raises(ValueError, match="ascending"):
            Observable(sigma_z.operator, flipped, sigma_z.projection_stack[::-1])

    def test_from_projection_is_dichotomic(self, pplus):
        observable = Observable.from_operator(pplus.matrix)
        assert observable.eigenvalues == (0.0, 1.0)
        assert matrices_close(observable.projection_stack[1], pplus)

    def test_from_projection_trivial_bounds(self):
        assert Observable.from_operator(np.zeros((3, 3))).eigenvalues == (0.0,)
        assert Observable.from_operator(np.eye(3)).eigenvalues == (1.0,)

    def test_stack_is_read_only_and_values_are_floats(self, sigma_x):
        observable = Observable(sigma_x.operator, np.array([-1, 1]), sigma_x.projection_stack)
        assert observable.eigenvalues == (-1.0, 1.0)
        assert all(type(value) is float for value in observable.eigenvalues)
        with pytest.raises(ValueError):
            observable.projection_stack[0, 0, 0] = 1.0

    def test_rejects_a_stack_of_the_wrong_shape(self, sigma_z):
        message = r"projection stack has shape \(1, 2, 2\), expected \(2, 2, 2\)"
        with pytest.raises(ValueError, match=message):
            Observable(sigma_z.operator, (-1.0, 1.0), sigma_z.projection_stack[:1])
        with pytest.raises(ValueError, match=r"expected \(2, 3, 3\)"):
            Observable(HermitianOperator(np.eye(3)), (0.0, 1.0), sigma_z.projection_stack)
        with pytest.raises(ValueError, match="spectrum must be nonempty"):
            Observable(sigma_z.operator, (), sigma_z.projection_stack[:0])
        # The shape is checked before the stack is validated, so a malformed
        # stack gets this message and not one from the validation's numpy.
        for malformed in (
            sigma_z.projection_stack[:0],
            np.zeros(2),
            np.zeros((1, 2)),
            np.zeros((1, 2, 3)),
            np.zeros((1, 1, 2, 2)),
        ):
            shape = re.escape(str(np.shape(malformed)))
            with pytest.raises(ValueError, match=rf"projection stack has shape {shape}, expected"):
                Observable(sigma_z.operator, (1.0,), malformed)

    def test_rejects_a_non_idempotent_stack_naming_its_index(self):
        check_rejects_non_idempotent_stack()


def check_rejects_non_idempotent_stack():
    """The stack is validated as projections once, at construction: a
    Hermitian but non-idempotent entry raises the message that names it."""
    stack = np.array([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])], dtype=np.complex128)
    try:
        Observable(HermitianOperator(np.diag([0.0, 1.0])), (0.0, 1.0), stack)
    except ValueError as exc:
        assert str(exc) == "matrix 1 is not idempotent: |P^2 - P| = 3.536e-01", exc
    else:
        raise AssertionError("an Observable accepted a non-idempotent stack")


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(123).generator().random(5)
        b = SeededRng(123).generator().random(5)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        rng = SeededRng(5)
        assert not np.array_equal(rng.substream(0).random(4), rng.substream(1).random(4))

    def test_derive_is_stable(self):
        assert SeededRng(9).derive(3, 1) == SeededRng(9).derive(3, 1)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SeededRng(2**64)

    def test_rejects_out_of_range_key(self):
        with pytest.raises(ValueError, match="key elements"):
            SeededRng(0).substream(-1)
        with pytest.raises(ValueError, match="key elements"):
            SeededRng(0).derive(3, 2**64)

    @pytest.mark.parametrize("seed", [True, 1.7, 1.0, "1"])
    def test_rejects_non_integer_seed(self, seed):
        # int() would read each of these as 1 and give seed 1's streams.
        with pytest.raises(ValueError, match=r"seed must be a 64-bit unsigned integer, got"):
            SeededRng(seed)

    @pytest.mark.parametrize("element", [True, 1.5])
    def test_rejects_non_integer_key(self, element):
        with pytest.raises(ValueError, match="key elements must be 64-bit unsigned integers, got"):
            SeededRng(0).substream(element)
        with pytest.raises(ValueError, match="key elements"):
            SeededRng(0).derive(3, element)

    def test_numpy_integers_address_the_same_streams(self):
        rng = SeededRng(np.uint64(5))
        assert type(rng.seed) is int and rng == SeededRng(5)
        assert np.array_equal(rng.substream(np.int32(2)).random(3), SeededRng(5).substream(2).random(3))


def oracle_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 123456789123]
KEY_ELEMENTS = [0, 2**32 - 1, 2**32, 2**64 - 1]


class TestStreamWords:
    """numpy's SeedSequence is the oracle for every substream and every
    derived seed; the derived seeds feed every report."""

    @pytest.fixture(params=SEEDS + ["random"])
    def seed(self, request):
        if request.param == "random":
            return int(np.random.SeedSequence(20031).generate_state(1, np.uint64)[0])
        return request.param

    def test_single_addresses_match_seed_sequence(self, seed):
        rng = SeededRng(seed)
        singles = [(element,) for element in KEY_ELEMENTS]
        pairs = [(index, order) for index in (0, 7, 2**32 - 1, 2**32) for order in (0, 1)]
        mixed = [(2**64 - 1, 0), (5, 2**32 + 3), (2**40, 2**63, 1)]
        for key in [(), *singles, *pairs, *mixed]:
            words = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert rng.derive(*key).seed == int(words[0]), key
            ours, theirs = rng.substream(*key), oracle_stream(seed, key)
            assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
            assert np.array_equal(ours.random(5), theirs.random(5))
        assert np.array_equal(rng.generator().random(5), oracle_stream(seed, ()).random(5))


def reference_haar(dim, gen):
    """The Haar draw as np.linalg.norm normalizes it."""
    while True:
        normals = gen.standard_normal(2 * dim)
        raw = normals[:dim] + 1j * normals[dim:]
        norm = np.linalg.norm(raw)
        if norm > 1e-6:
            return raw / norm


class _ShortRow:
    """A normals stream whose first draw has one row scaled far below the
    Haar rejection threshold."""

    def __init__(self, gen, row):
        self.gen = gen
        self.row = row

    def standard_normal(self, size):
        values = self.gen.standard_normal(size)
        if self.row is not None:
            values[self.row] *= 1e-9
            self.row = None
        return values


class TestHaarRows:
    def test_single_draw_matches_linalg_norm(self):
        for dim in range(2, 9):
            ours, theirs = oracle_stream(80, (dim,)), oracle_stream(80, (dim,))
            for _ in range(200):
                state = haar_random_ket(dim, ours).amplitudes
                assert np.array_equal(state, reference_haar(dim, theirs))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_raises_before_reading_the_stream(self, dim):
        # A row of no normals never normalizes, so without the check dim = 0
        # redraws forever; the alarm turns such a hang into a failure.
        def expire(signum, frame):
            raise TimeoutError(f"haar_random_ket({dim}, ...) did not return within 10 s")

        gen = oracle_stream(5, ())
        state = gen.bit_generator.state
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            for rng in (SeededRng(1), gen):
                with pytest.raises(ValueError, match=rf"^dim must be at least 1, got {dim}$"):
                    haar_random_ket(dim, rng)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_block_matches_single_draws_bit_for_bit(self, dim):
        for trials in (1, 300):
            normals, uniforms = oracle_stream(90, (dim, 0)), oracle_stream(90, (dim, 1))
            states, draws = _draw_block(normals, uniforms, trials, dim)
            normals, uniforms = oracle_stream(90, (dim, 0)), oracle_stream(90, (dim, 1))
            for trial in range(trials):
                for order in range(2):
                    assert np.array_equal(states[order, trial], reference_haar(dim, normals))
                    assert np.array_equal(draws[order, trial], uniforms.random(3))

    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_short_draw_is_redrawn_in_the_batch(self, dim):
        # Only the short row (trial 3, order 1) changes, to the next Haar
        # draw of the normals stream after the block; every other row and
        # every uniform stays as drawn without it.
        trials, short = 8, (3, 1)

        def streams():
            return oracle_stream(99, (dim, 0)), oracle_stream(99, (dim, 1))

        states, draws = _draw_block(*streams(), trials, dim)
        normals, uniforms = streams()
        redrawn, redrawn_draws = _draw_block(_ShortRow(normals, short), uniforms, trials, dim)
        changed = np.any(redrawn != states, axis=-1).T
        assert changed.tolist() == [[(t, o) == short for o in range(2)] for t in range(trials)]
        row = redrawn[short[1], short[0]]
        assert np.vdot(row, row).real == pytest.approx(1.0, abs=1e-12)
        after_block, _ = streams()
        after_block.standard_normal((trials, 2, 2 * dim))
        assert np.array_equal(row, reference_haar(dim, after_block))
        assert np.array_equal(redrawn_draws, draws)


class TestBornProbability:
    def test_eigenvector(self, p0):
        assert born_probability(Ket.basis(2, 0), p0) == 1.0

    def test_orthogonal(self, p1):
        assert born_probability(Ket.basis(2, 0), p1) == 0.0

    def test_superposition(self, p0, plus_ket):
        assert born_probability(plus_ket, p0) == pytest.approx(0.5)

    def test_dim_mismatch(self, p0):
        with pytest.raises(ValueError, match="mismatch"):
            born_probability(Ket.basis(3, 0), p0)


class TestMeasure:
    def test_eigenstate_is_deterministic(self, sigma_z):
        for seed in range(20):
            outcome = measure(Ket.basis(2, 0), sigma_z, SeededRng(seed))
            assert outcome.eigenvalue == 1.0
            assert outcome.probability == pytest.approx(1.0)
            assert np.allclose(outcome.post_state.amplitudes, [1.0, 0.0])

    def test_superposition_frequencies(self, sigma_z, plus_ket):
        gen = SeededRng(7).generator()
        hits = sum(measure(plus_ket, sigma_z, gen).eigenvalue == 1.0 for _ in range(4000))
        assert 0.45 < hits / 4000 < 0.55

    def test_post_state_is_matching_basis_vector(self, sigma_z, plus_ket):
        gen = SeededRng(8).generator()
        for _ in range(50):
            outcome = measure(plus_ket, sigma_z, gen)
            expected = Ket.basis(2, 0 if outcome.eigenvalue == 1.0 else 1)
            assert np.allclose(np.abs(outcome.post_state.amplitudes), expected.amplitudes)

    def test_sampled_outcome_has_positive_probability(self):
        observable = Observable.from_operator(np.diag([0.0, 1.0, 2.0]))
        gen = SeededRng(9).generator()
        for _ in range(200):
            outcome = measure(Ket.normalized([1.0, 1.0, 0.0]), observable, gen)
            assert outcome.probability > 0.0
            assert outcome.eigenvalue in (0.0, 1.0)

    def test_repeatability(self):
        from qlat.experiments import random_hermitian

        rng = SeededRng(10)
        gen = rng.generator()
        observable = None
        violations = 0
        for trial in range(10_000):
            if trial % 200 == 0:
                dim = int(gen.integers(2, 7))
                observable = Observable.from_operator(random_hermitian(dim, gen))
            state = haar_random_ket(observable.dim, gen)
            first = measure(state, observable, gen)
            second = measure(first.post_state, observable, gen)
            violations += second.outcome_index != first.outcome_index
            assert second.probability == pytest.approx(1.0)
        assert violations == 0

    def test_nonselective_probabilities_sum_to_one(self, pol):
        rng = SeededRng(11)
        gen = rng.generator()
        from qlat.experiments import random_hermitian

        for _ in range(200):
            dim = int(gen.integers(2, 8))
            observable = Observable.from_operator(random_hermitian(dim, gen))
            state = haar_random_ket(dim, gen)
            total = sum(
                born_probability(state, Projection(projection), pol)
                for projection in observable.projection_stack
            )
            assert total == pytest.approx(1.0, abs=pol.prob_tol)


def interposition(first, second):
    return _sandwich_residuals(first, second)[0]


def symmetry(first, second):
    return _sandwich_residuals(first, second)[1]


class TestExactRelations:
    def test_commutation(self, sigma_z, sigma_x, diag_a, diag_b):
        assert compatibility_verdict(diag_a, diag_b, trials=1).commutation
        assert not compatibility_verdict(sigma_z, sigma_x, trials=1).commutation
        assert compatibility_verdict(sigma_z, sigma_z, trials=1).commutation

    @staticmethod
    def holds(criterion, residual, first, second):
        """The exact verdict as compatibility_verdict takes it."""
        return criterion_holds(criterion, residual(first, second), first.dim)

    def test_nondisturbance(self, sigma_z, sigma_x, diag_a, diag_b):
        def leakage(first, second):
            return _sandwich_defects(first, second)[0]

        assert self.holds("nondisturbance", leakage, diag_a, diag_b)
        assert not self.holds("nondisturbance", leakage, sigma_z, sigma_x)
        assert self.holds("nondisturbance", leakage, sigma_z, sigma_z)

    def test_nondisturbance_residual_value(self, sigma_z, sigma_x):
        # (I - |0><0|) |+><+| |0><0| is rank one with entry 1/2
        assert _sandwich_defects(sigma_z, sigma_x)[0] == pytest.approx(0.5)

    def test_interposition(self, sigma_z, sigma_x, diag_a, diag_b):
        assert self.holds("interposition", interposition, diag_a, diag_b)
        assert self.holds("interposition", interposition, sigma_z, sigma_z)
        assert not self.holds("interposition", interposition, sigma_z, sigma_x)

    def test_interposition_residual_value(self, sigma_z, sigma_x):
        # sum_n P_n |+><+| P_n = I/2, distance to |+><+| is 1/sqrt(2)
        assert interposition(sigma_z, sigma_x) == pytest.approx(1 / np.sqrt(2))

    def test_sequence_symmetry(self, sigma_z, sigma_x, diag_a, diag_b):
        assert self.holds("sequence_symmetry", symmetry, diag_a, diag_b)
        assert self.holds("sequence_symmetry", symmetry, sigma_x, sigma_x)
        assert not self.holds("sequence_symmetry", symmetry, sigma_z, sigma_x)

    def test_sequence_symmetry_residual_value(self, sigma_z, sigma_x):
        # P0 Px P0 = |0><0|/2 against Px P0 Px = |+><+|/2
        assert symmetry(sigma_z, sigma_x) == pytest.approx(0.5)

    def test_relations_reflexive_and_symmetric(self, pol):
        rng = SeededRng(21)
        gen = rng.generator()
        for trial in range(60):
            dim = int(gen.integers(2, 6))
            first, second = _observable_pairs(dim, [trial % 2 == 0], [gen], pol)[0]
            reflexive, forward, backward = (
                compatibility_verdict(a, b, pol, trials=1)
                for a, b in ((first, first), (first, second), (second, first))
            )
            for criterion in (
                "commutation", "nondisturbance", "interposition", "sequence_symmetry", "commeasurable"
            ):
                assert getattr(reflexive, criterion)
                assert getattr(forward, criterion) == getattr(backward, criterion)

    @pytest.mark.parametrize(
        "residual",
        [
            lambda first, second: _sandwich_defects(first, second)[0],
            lambda first, second: _sandwich_defects(first, second)[1],
            pytest.param(interposition, id="interposition_residual"),
            pytest.param(symmetry, id="sequence_symmetry_residual"),
            lambda first, second: compatibility_verdict(first, second, trials=1).commutation,
            compatibility_verdict,
        ],
    )
    def test_residuals_reject_dimension_mismatch(self, residual, sigma_z):
        with pytest.raises(ValueError, match="dimension mismatch"):
            residual(sigma_z, Observable.from_operator(np.diag([1.0, 2.0, 3.0])))


def oracle_residuals(first, second):
    """Independent route for the projection-level residuals: one loop per
    residual over the eigenprojection pairs, one np.linalg.norm per product.
    Returns the worst sandwich leak, the disagreement rate of the worse
    order, the interposition residual and the sequence-symmetry residual."""
    eye = np.eye(first.dim, dtype=np.complex128)
    worst, rates = 0.0, []
    for outer, inner in ((first, second), (second, first)):
        norms = [
            float(np.linalg.norm((eye - p) @ q @ p))
            for p in outer.projection_stack
            for q in inner.projection_stack
        ]
        worst = max(worst, *norms)
        rates.append(sum(norm**2 for norm in norms) / first.dim)

    interposition = 0.0
    for outer, inner in ((first, second), (second, first)):
        for q in inner.projection_stack:
            mixed = sum(p @ q @ p for p in outer.projection_stack)
            interposition = max(interposition, float(np.linalg.norm(q - mixed)))

    symmetry = 0.0
    for p in first.projection_stack:
        for q in second.projection_stack:
            forward = p @ q @ p
            backward = q @ p @ q
            symmetry = max(symmetry, float(np.linalg.norm(forward - backward)))
    return worst, max(rates), interposition, symmetry


def assert_residuals_match_oracle(first, second):
    assert (*_sandwich_defects(first, second), *_sandwich_residuals(first, second)) == oracle_residuals(first, second)


class TestResidualOracle:
    """The array expressions give the per-pair loops' bits, not only their
    values: the residuals decide every verdict and the MC floor, and a
    failing instance reports its residual."""

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("commuting", [True, False])
    def test_generated_pairs(self, dim, commuting, pol):
        gen = SeededRng(30 + dim).generator()
        for _ in range(12):
            first, second = _observable_pairs(dim, [commuting], [gen], pol)[0]
            assert_residuals_match_oracle(first, second)
            assert_residuals_match_oracle(second, first)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_shared_products_give_the_separate_residuals_bit_for_bit(self, dim, pol):
        # One PQP and one QPQ stack serve both residuals; each separate
        # route takes its own products.
        gen = SeededRng(50 + dim).generator()
        for trial in range(12):
            first, second = _observable_pairs(dim, [trial % 2 == 0], [gen], pol)[0]
            for pair in ((first, second), (second, first)):
                expected = interposition_residual(*pair), sequence_symmetry_residual(*pair)
                assert _sandwich_residuals(*pair) == expected

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_unequal_outcome_counts_and_higher_rank(self, dim, pol):
        gen = SeededRng(40 + dim).generator()
        for _ in range(6):
            columns = gen.standard_normal((dim, 2)) + 1j * gen.standard_normal((dim, 2))
            plane = Observable.from_operator(Projection.from_basis(np.linalg.qr(columns)[0]).matrix, pol)
            other, _ = _observable_pairs(dim, [False], [gen], pol)[0]
            assert plane.projection_stack.shape[0] == 2
            assert_residuals_match_oracle(plane, other)
            assert_residuals_match_oracle(other, plane)

    def test_single_outcome_observable(self, pol):
        gen = SeededRng(48).generator()
        for dim in (2, 4, 7):
            whole = Observable.from_operator(np.eye(dim), pol)
            other, _ = _observable_pairs(dim, [False], [gen], pol)[0]
            assert len(whole.eigenvalues) == 1
            assert_residuals_match_oracle(whole, other)
            assert_residuals_match_oracle(other, whole)
            assert_residuals_match_oracle(whole, whole)


class TestJointObservable:
    def test_self_pair(self, sigma_z):
        joint = compatibility_verdict(sigma_z, sigma_z, trials=1).joint
        assert joint is not None
        for joint_projection, original in zip(joint.projection_stack, sigma_z.projection_stack):
            assert leq(joint_projection, original)

    def test_degenerate_pair_resolves_axes(self):
        first = Observable.from_operator(np.diag([1.0, 1.0, 2.0]))
        second = Observable.from_operator(np.diag([3.0, 4.0, 4.0]))
        joint = compatibility_verdict(first, second, trials=1).joint
        assert joint is not None
        assert len(joint.eigenvalues) == 3
        ranks = [Projection(projection).rank for projection in joint.projection_stack]
        assert ranks == [1, 1, 1]
        axes = [np.argmax(np.diag(projection).real) for projection in joint.projection_stack]
        assert sorted(axes) == [0, 1, 2]

    def test_noncommuting_pair_has_no_witness(self, sigma_z, sigma_x):
        assert compatibility_verdict(sigma_z, sigma_x, trials=1).joint is None

    def test_witness_determines_both_values(self, pol):
        gen = SeededRng(22).generator()
        for _ in range(30):
            dim = int(gen.integers(2, 6))
            first, second = _observable_pairs(dim, [True], [gen], pol)[0]
            joint = compatibility_verdict(first, second, pol, trials=1).joint
            assert joint is not None
            for joint_projection in joint.projection_stack:
                below_first = sum(
                    leq(joint_projection, p, pol) for p in first.projection_stack
                )
                below_second = sum(
                    leq(joint_projection, q, pol) for q in second.projection_stack
                )
                assert below_first == 1
                assert below_second == 1


def per_product_joint(first, second):
    """The joint witness as it stood before the stack, written out as the
    oracle: one Projection per kept product P_n Q_p, in loop order, with
    eigenvalue n * K + p."""
    k = len(second.eigenvalues)
    entries = []
    for n, p in enumerate(first.projection_stack):
        for q_index, q in enumerate(second.projection_stack):
            product = p @ q
            if float(np.trace(product).real) < 0.5:
                continue
            entries.append((float(n * k + q_index), Projection(product).matrix))
    return entries


def per_column_observable(basis, values):
    """A commuting pair's spectrum as it stood before the stack:
    one Projection.from_basis per column, in ascending order of value."""
    order = np.argsort(values)
    matrices = [Projection.from_basis(basis[:, i : i + 1]).matrix for i in order]
    return tuple(float(values[i]) for i in order), np.stack(matrices)


class TestStackOracles:
    """The stacks equal the per-matrix routes they replace: bit for bit
    where the same dyads are formed, within rounding for the joint's
    broadcast products."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_commuting_pair_equals_the_per_column_route(self, dim, pol):
        # The twin stream replays the pair's draws: the basis, then two spectra.
        gen, twin = SeededRng(80 + dim).generator(), SeededRng(80 + dim).generator()
        for _ in range(20):
            pair = _observable_pairs(dim, [True], [gen], pol)[0]
            basis, _ = np.linalg.qr(_gaussian_matrix(dim, twin))
            for observable in pair:
                expected_values, expected = per_column_observable(basis, _gapped_values(dim, twin))
                assert observable.eigenvalues == expected_values
                assert np.array_equal(observable.projection_stack, expected)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_joint_equals_the_per_product_route(self, dim, pol):
        gen = SeededRng(90 + dim).generator()
        pairs = [_observable_pairs(dim, [True], [gen], pol)[0] for _ in range(10)]
        columns = gen.standard_normal((dim, 1)) + 1j * gen.standard_normal((dim, 1))
        line = Observable.from_operator(Projection.from_basis(np.linalg.qr(columns)[0]).matrix, pol)
        pairs += [(line, line), (line, Observable.from_operator(np.eye(dim), pol))]
        degenerate = np.diag(np.arange(dim) // 2 * 1.0), np.diag(np.arange(dim) % 2 * 1.0)
        pairs.append(tuple(Observable.from_operator(matrix, pol) for matrix in degenerate))
        for first, second in pairs:
            for outer, inner in ((first, second), (second, first)):
                joint = compatibility_verdict(outer, inner, pol, trials=1).joint
                entries = per_product_joint(outer, inner)
                assert joint.eigenvalues == tuple(value for value, _ in entries)
                expected = np.stack([matrix for _, matrix in entries])
                assert np.abs(joint.projection_stack - expected).max() <= 1e-14
                operator = sum(value * matrix for value, matrix in entries)
                assert np.abs(joint.operator.matrix - operator).max() <= 1e-12


class TestStackMutants:
    def test_unvalidated_constructor_is_killed_by_the_non_idempotent_stack(self, monkeypatch):
        def unvalidated(self):
            object.__setattr__(self, "eigenvalues", tuple(map(float, self.eigenvalues)))

        monkeypatch.setattr(Observable, "__post_init__", unvalidated)
        with pytest.raises(AssertionError):
            check_rejects_non_idempotent_stack()


class TestMonteCarlo:
    def test_commuting_pair_never_disagrees(self, diag_a, diag_b):
        assert sequential_disagreements(diag_a, diag_b, 2000, SeededRng(31)) == (0, 0)

    def test_noncommuting_pair_disagrees_at_half_rate(self, sigma_z, sigma_x):
        forward, backward = sequential_disagreements(sigma_z, sigma_x, 4000, SeededRng(32))
        assert 0.45 < forward / 4000 < 0.55
        assert 0.45 < backward / 4000 < 0.55
        assert sum(sequential_disagreements(sigma_z, sigma_x, 1000, SeededRng(33))) > 0

    def test_rejects_zero_trials(self, sigma_z, sigma_x):
        with pytest.raises(ValueError, match="trials"):
            sequential_disagreements(sigma_z, sigma_x, 0, SeededRng(0))

    def test_deterministic_per_seed(self, sigma_z, sigma_x):
        first = sequential_disagreements(sigma_z, sigma_x, 500, SeededRng(34))
        second = sequential_disagreements(sigma_z, sigma_x, 500, SeededRng(34))
        assert first == second

    def test_analytic_rate_and_floor(self, sigma_z, sigma_x, diag_a, diag_b):
        rate = _sandwich_defects(sigma_z, sigma_x)[1]
        assert rate == pytest.approx(0.5)
        # ceil of 50 / 0.5 up to float rounding, never below the exact value
        assert 100 <= _trial_floor(rate) <= 101
        rate = _sandwich_defects(diag_a, diag_b)[1]
        assert rate == pytest.approx(0.0, abs=1e-28)
        assert _trial_floor(rate) == 2**62

    def test_analytic_rate_matches_observed_frequency(self, pol):
        # dual route: the Haar-averaged squared-residual sum must predict the
        # simulated first-second-first disagreement frequency
        gen = SeededRng(35).generator()
        trials = 4000
        for offset in range(3):
            dim = 2 + offset
            first, second = _observable_pairs(dim, [False], [gen], pol)[0]
            eye = np.eye(dim)
            analytic = sum(
                np.linalg.norm((eye - p) @ q @ p) ** 2
                for p in first.projection_stack
                for q in second.projection_stack
            ) / dim
            forward, _ = sequential_disagreements(
                first, second, trials, SeededRng(36 + offset), pol
            )
            assert abs(forward / trials - analytic) < 0.04


def single_shot_disagreements(first, second, trials, rng, pol):
    """Reference route for sequential_disagreements: per trial and order, a
    haar_random_ket from the normals stream and three single-shot measure
    calls on the uniforms stream, both seeded by numpy's SeedSequence."""
    normals, uniforms = oracle_stream(rng.seed, (0,)), oracle_stream(rng.seed, (1,))
    counts = [0, 0]
    for _ in range(trials):
        for order, (outer, inner) in enumerate(((first, second), (second, first))):
            opening = measure(haar_random_ket(first.dim, normals), outer, uniforms, pol)
            interposed = measure(opening.post_state, inner, uniforms, pol)
            closing = measure(interposed.post_state, outer, uniforms, pol)
            counts[order] += closing.outcome_index != opening.outcome_index
    return tuple(counts)


class TestBatchedEngine:
    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("commuting", [True, False])
    def test_matches_single_shot_route(self, dim, commuting, pol):
        gen = SeededRng(60 + dim).generator()
        first, second = _observable_pairs(dim, [commuting], [gen], pol)[0]
        rng = SeededRng(70 + dim)
        batched = sequential_disagreements(first, second, 40, rng, pol)
        assert batched == single_shot_disagreements(first, second, 40, rng, pol)
        if not commuting:
            assert sum(batched) > 0

    def test_matches_single_shot_route_with_unequal_outcome_counts(self, pol):
        gen = SeededRng(62).generator()
        columns = gen.standard_normal((4, 2)) + 1j * gen.standard_normal((4, 2))
        first = Observable.from_operator(Projection.from_basis(np.linalg.qr(columns)[0]).matrix, pol)
        second, _ = _observable_pairs(4, [False], [gen], pol)[0]
        assert (len(first.eigenvalues), len(second.eigenvalues)) == (2, 4)
        rng = SeededRng(63)
        for pair in ((first, second), (second, first)):
            batched = sequential_disagreements(*pair, 60, rng, pol)
            assert batched == single_shot_disagreements(*pair, 60, rng, pol)

    def test_matches_single_shot_route_across_a_block_boundary(
        self, sigma_z, sigma_x, pol, monkeypatch
    ):
        trials = _MC_BLOCK + 3
        rng = SeededRng(64)
        expected = single_shot_disagreements(sigma_z, sigma_x, trials, rng, pol)
        assert sequential_disagreements(sigma_z, sigma_x, trials, rng, pol) == expected
        monkeypatch.setattr(measurement, "_MC_BLOCK", 37)
        assert sequential_disagreements(sigma_z, sigma_x, trials, rng, pol) == expected

    def test_incomplete_spectrum_raises_as_measure_does(self, sigma_x, pol):
        half = Projection(np.diag([1.0, 0.0]))
        broken = Observable(HermitianOperator(half.matrix), (1.0,), half.matrix[None])
        rng = SeededRng(65)
        with pytest.raises(ValueError, match="outcome probabilities sum to") as single:
            single_shot_disagreements(broken, sigma_x, 4, rng, pol)
        with pytest.raises(ValueError, match="outcome probabilities sum to") as batched:
            sequential_disagreements(broken, sigma_x, 4, rng, pol)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_unit_row_guard_rejects_non_finite_rows(self, entry, pol):
        # NaN compares false against every threshold, so the guard must test
        # for a deviation within tolerance, not for one beyond it.
        rows = np.array([[1.0, 0.0], [entry, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="state vector is not normalized"):
            _check_unit_rows(rows, pol.norm_tol)
        _check_unit_rows(rows[:1], pol.norm_tol)

    def test_unit_row_guard_reads_the_configured_norm_tol(self, pol):
        # Haar draws and collapsed states are unit vectors only to rounding,
        # so a norm_tol of 1e-300 must reject them; the default keeps the counts.
        first, second = _observable_pairs(3, [False], [SeededRng(7).generator()], pol)[0]
        assert sequential_disagreements(first, second, 64, SeededRng(7), pol) == (33, 36)
        strict = TolerancePolicy(norm_tol=1e-300)
        with pytest.raises(ValueError, match="state vector is not normalized"):
            sequential_disagreements(first, second, 64, SeededRng(7), strict)

    def test_probability_sum_guard_rejects_nan(self, sigma_x, pol):
        stacks, last = _padded_stacks([(sigma_x, sigma_x)])
        states = np.array([[[np.nan, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="outcome probabilities sum to nan"):
            _measure_rows(states, stacks[:1, 0], last[:1, 0], np.array([[0.5]]), pol)

    def test_inverse_cdf_edge_cases(self, pol):
        # u = 1 puts u * total on the last edge, so every edge counts; the
        # clamped last outcome has probability zero and the likeliest is
        # taken instead. u = 0 skips leading zero-probability outcomes, as
        # searchsorted(side="right") does.
        first = Observable.from_operator(np.diag([1.0, 2.0, 3.0]))
        second = Observable.from_operator(np.diag([1.0, 1.0, 2.0]))
        stacks, last = _padded_stacks([(first, second)])
        states = np.stack([np.eye(3), np.eye(3)]).astype(complex)
        uniforms = np.array([[1.0, 0.5, 0.0], [1.0, 0.5, 0.0]])
        index, collapsed = _measure_rows(states, stacks[:, 0], last[:, 0], uniforms, pol)
        assert index.tolist() == [[0, 1, 2], [0, 0, 1]]
        assert np.allclose(collapsed, states)


class TestCompatibilityVerdict:
    def test_commuting_pair_all_true(self, diag_a, diag_b):
        verdict = compatibility_verdict(diag_a, diag_b, trials=200, rng=SeededRng(41))
        assert verdict.coincide
        assert verdict.commutation and verdict.nondisturbance
        assert verdict.commeasurable and verdict.joint is not None
        assert verdict.mc_consistent and verdict.mc_disagreements == 0
        assert verdict.max_violation == 0.0

    def test_pauli_pair_all_false(self, sigma_z, sigma_x):
        verdict = compatibility_verdict(sigma_z, sigma_x, trials=200, rng=SeededRng(42))
        assert verdict.coincide
        assert not (
            verdict.commutation
            or verdict.nondisturbance
            or verdict.interposition
            or verdict.sequence_symmetry
            or verdict.commeasurable
        )
        assert verdict.mc_consistent and verdict.mc_disagreements > 0
        assert verdict.mc_disagreements == sum(
            sequential_disagreements(sigma_z, sigma_x, 200, SeededRng(42))
        )
        assert verdict.max_violation == pytest.approx(2 * np.sqrt(2))

    def test_random_ensemble_coincides(self, pol):
        rng = SeededRng(43)
        gen = rng.generator()
        for trial in range(1000):
            dim = 2 + trial % 7
            first, second = _observable_pairs(dim, [trial % 2 == 0], [gen], pol)[0]
            verdict = compatibility_verdict(
                first, second, pol, trials=16, rng=rng.derive(trial)
            )
            assert verdict.coincide
            assert verdict.mc_consistent
