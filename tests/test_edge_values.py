"""A study held as the upper triangle of its cells, against the full stack.

``StudyDataset`` keeps only ``edge_values``, the upper triangle of every
checked cell.  Each path that reads it is held bit for bit (by
``tobytes``, so signed zeros count) to the full-stack path in
``tests/oracles.py`` that it replaced; and the loader, the dataset and the
SPN steps are held to a memory budget in units of the triangle's bytes.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
import spnkit as sk
from spnkit import io as spnio

from datasets import build_manifest, stack_from_z


def tie_stack(rng, n=4, j=3, n_v=7) -> np.ndarray:
    """Cells whose entries are multiples of 0.25, so many values repeat."""
    stack = np.zeros((n, j, n_v, n_v))
    rows, cols = np.triu_indices(n_v, k=1)
    stack[:, :, rows, cols] = rng.integers(-3, 4, size=(n, j, rows.size)) * 0.25
    return stack + np.swapaxes(stack, 2, 3)


def signed_zero_stack(rng) -> np.ndarray:
    """A tie-heavy stack with -0.0 at both (0, 1) and (1, 0) of one cell,
    -0.0 against +0.0 at (0, 2), and a -0.0 diagonal entry."""
    stack = tie_stack(rng, n=3, j=2, n_v=4)
    stack[1, 0, 0, 1] = stack[1, 0, 1, 0] = -0.0
    stack[1, 0, 0, 2], stack[1, 0, 2, 0] = -0.0, 0.0
    stack[1, 0, 3, 3] = -0.0
    return stack


def sample_correlation_stack(rng, n=2, j=2, n_v=112, samples=120) -> np.ndarray:
    """Sample correlations of ``n_v`` signals, with the diagonal zeroed and
    an asymmetry well inside the symmetry tolerance."""
    stack = np.empty((n, j, n_v, n_v))
    for si, ci in np.ndindex(n, j):
        cell = np.corrcoef(rng.normal(size=(n_v, samples)))
        np.fill_diagonal(cell, 0.0)
        stack[si, ci] = cell + np.triu(rng.uniform(-1e-12, 1e-12, size=(n_v, n_v)), k=1)
    return stack


STACKS = {
    "datasets-noise": lambda rng: stack_from_z(rng.normal(0.0, 0.3, size=(6, 3, 36))),
    "ties": tie_stack,
    "signed-zero": signed_zero_stack,
    "112-nodes": sample_correlation_stack,
}


def dataset(stack) -> sk.StudyDataset:
    n, j, n_v, _ = stack.shape
    return sk.StudyDataset(stack, [f"n{v}" for v in range(n_v)], [f"c{c}" for c in range(j)],
                           [f"s{i}" for i in range(n)])


@pytest.fixture(params=sorted(STACKS))
def stack(request):
    return STACKS[request.param](np.random.default_rng(11))


class TestTheTriangleLosesNoBit:
    def test_each_rebuilt_cell_is_the_checked_cell(self, stack):
        assert dataset(stack).correlations().tobytes() == oracles.checked_stack(stack).tobytes()

    def test_edge_values_are_the_gathered_triangle(self, stack):
        data = dataset(stack)
        gathered = oracles.gathered_edge_values(oracles.checked_stack(stack))
        assert data.edge_values.tobytes() == gathered.tobytes()

    def test_signed_zeros_survive(self):
        data = dataset(signed_zero_stack(np.random.default_rng(11)))
        rebuilt = data.correlations()[1, 0]
        assert np.signbit(rebuilt[0, 1]) and np.signbit(rebuilt[1, 0])
        assert not np.signbit(rebuilt[0, 2]) and not np.signbit(rebuilt[3, 3])

    def test_mean_spn_statistics(self, stack):
        data, full = dataset(stack), oracles.checked_stack(stack)
        for condition in range(data.n_conditions):
            result = sk.mean_spn(data, condition)
            expected = oracles.mean_spn_statistics_full_stack(full, condition)
            got = (result.statistic, result.p_value, result.sign)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_differential_spn_statistics(self, stack):
        data = dataset(stack)
        fit = oracles.differential_fit_full_stack(oracles.checked_stack(stack))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sk.DegenerateStatisticsWarning)
            plus, minus = sk.differential_spn(data)
        for result in (plus, minus):
            assert result.statistic.tobytes() == fit.f_statistic.tobytes()
            assert result.p_value.tobytes() == fit.p_value.tobytes()
            assert result.sign.tobytes() == fit.trend_sign.tobytes()

    def test_condition_mean_matrices(self, stack):
        data, full = dataset(stack), oracles.checked_stack(stack)
        for condition in range(data.n_conditions):
            expected = oracles.condition_mean_matrix_full_stack(full, condition)
            assert spnio.condition_mean_matrix(data, condition).tobytes() == expected.tobytes()

    def test_the_loader_holds_what_the_dataset_holds(self, stack, tmp_path):
        data = dataset(stack)
        manifest = build_manifest(tmp_path, stack, data.node_labels, data.condition_labels,
                                  data.subject_ids)
        loaded = sk.load_dataset(manifest)
        assert loaded.edge_values.tobytes() == data.edge_values.tobytes()
        assert not loaded.edge_values.flags.writeable

    def test_the_callers_stack_is_left_as_it_was(self, stack):
        before = stack.copy()
        data = dataset(stack)
        assert stack.tobytes() == before.tobytes()
        assert not np.shares_memory(stack, data.edge_values)


class TestMemory:
    """tracemalloc peaks on a generated 20 x 4 x 60 study (the paper's
    design on fewer nodes), in units of the held triangle's bytes.

    Measured with numpy 2.4 on Python 3.11: the load peaks at 1.13 and a
    dataset built from an in-memory stack at 1.08; the mean SPN peaks at
    1.25 and the differential SPN at 1.95 above the held dataset.  Each
    bound leaves a margin of 0.1 to 0.25, well short of the one
    triangle-sized copy that a second stack, gather or fit copy would add.
    The fixture loads the study once first, so that what only the first
    load in a process pays (about 0.15 more, the cached index pairs among
    it) is not counted.
    """

    N, J, N_V = 20, 4, 60

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("study")
        stack = sample_correlation_stack(np.random.default_rng(3), self.N, self.J, self.N_V)
        path = build_manifest(tmp_path, stack, [f"n{v}" for v in range(self.N_V)],
                              [f"c{c}" for c in range(self.J)], [f"s{i}" for i in range(self.N)])
        manifest = spnio.parse_manifest(path)
        sk.load_dataset(manifest)
        return manifest

    @staticmethod
    def peak(call):
        """(result, peak bytes traced during ``call`` above what was traced before it)."""
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    def test_peaks_in_triangles(self, manifest):
        triangle = self.N * self.J * (self.N_V * (self.N_V - 1) // 2) * 8
        data, load = self.peak(lambda: sk.load_dataset(manifest))
        _, mean = self.peak(lambda: sk.mean_spn(data, 2))
        _, differential = self.peak(lambda: sk.differential_spn(data))
        assert data.edge_values.nbytes == triangle
        assert load <= 1.25 * triangle
        assert mean <= 1.5 * triangle
        assert differential <= 2.2 * triangle

    def test_an_in_memory_stack_is_not_copied_whole(self, manifest):
        # the stack is about twice the triangle; a copy of it would add 2 more
        stack = sk.load_dataset(manifest).correlations()
        triangle = stack.nbytes * (self.N_V - 1) // (2 * self.N_V)
        _, build = self.peak(lambda: sk.StudyDataset(stack, manifest.node_labels,
                                                     manifest.conditions, manifest.subjects))
        assert build <= 1.25 * triangle

    def test_no_held_array_is_a_full_stack(self, manifest):
        data = sk.load_dataset(manifest)
        held = [a for value in vars(data).values() if isinstance(value, np.ndarray)
                for a in (value, value.base) if a is not None]
        assert held and all(a.size != self.N * self.J * self.N_V ** 2 for a in held)
