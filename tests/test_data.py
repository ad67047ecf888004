import numpy as np
import pytest

from stabcert.data import (
    Dataset,
    effective_sector,
    ingest_csv,
    make_neighbor,
    subsample,
    synthetic_dataset,
)


def test_dataset_validation():
    with pytest.raises(ValueError, match="2-d"):
        Dataset(x=np.zeros(3), y=np.ones(3))
    with pytest.raises(ValueError, match="label count"):
        Dataset(x=np.zeros((3, 2)), y=np.ones(2))
    with pytest.raises(ValueError, match="labels"):
        Dataset(x=np.zeros((2, 2)), y=np.array([1.0, 2.0]))


def test_synthetic_shapes_and_separation():
    data = synthetic_dataset(500, 8, separation=2.0, seed=1)
    assert data.n == 500 and data.dim == 8
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    # shifted first coordinate: class means differ by about 2*separation
    pos = data.x[data.y > 0, 0].mean()
    neg = data.x[data.y < 0, 0].mean()
    assert pos - neg == pytest.approx(4.0, abs=0.5)
    # other coordinates are centered
    assert abs(data.x[:, 1:].mean()) < 0.1


def test_synthetic_is_seed_deterministic():
    a = synthetic_dataset(50, 4, seed=9)
    b = synthetic_dataset(50, 4, seed=9)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_synthetic_sampler_draws_fresh_records():
    data = synthetic_dataset(20, 5, separation=1.5, seed=3)
    rng = np.random.default_rng(0)
    row, label = data.draw_record(rng)
    assert row.shape == (5,) and label in (-1.0, 1.0)
    # same rng state gives the same draw; sampler is a pure function of it
    row2, label2 = data.draw_record(np.random.default_rng(0))
    np.testing.assert_array_equal(row, row2)
    assert label == label2


def test_bootstrap_draw_without_sampler():
    data = Dataset(x=np.arange(6.0).reshape(3, 2), y=np.array([1.0, -1.0, 1.0]))
    row, label = data.draw_record(np.random.default_rng(4))
    matches = [
        i
        for i in range(3)
        if np.array_equal(row, data.x[i]) and label == data.y[i]
    ]
    assert matches


def test_synthetic_rejects_empty():
    with pytest.raises(ValueError):
        synthetic_dataset(0, 4)
    with pytest.raises(ValueError):
        synthetic_dataset(4, 0)


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_csv_standardizes(tmp_path):
    p = _write_csv(
        tmp_path / "toy.csv",
        "f1,f2,label\n1.0,5.0,1\n2.0,5.0,0\n3.0,5.0,1\n",
    )
    data = ingest_csv(p)
    assert data.name == "toy"
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    np.testing.assert_allclose(data.x[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(data.x[:, 0].std(), 1.0, atol=1e-12)
    # constant column becomes exactly zero
    np.testing.assert_array_equal(data.x[:, 1], 0.0)


def test_ingest_csv_accepts_plus_minus_labels(tmp_path):
    p = _write_csv(tmp_path / "pm.csv", "a,label\n0.5,-1\n1.5,1\n")
    data = ingest_csv(p)
    np.testing.assert_array_equal(data.y, [-1.0, 1.0])


def test_ingest_csv_error_modes(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "missing.csv")
    with pytest.raises(ValueError, match="non-numeric"):
        ingest_csv(_write_csv(tmp_path / "a.csv", "a,label\nx,1\n"))
    with pytest.raises(ValueError, match="both classes"):
        ingest_csv(_write_csv(tmp_path / "b.csv", "a,label\n1,1\n2,1\n"))
    with pytest.raises(ValueError, match="labels must be"):
        ingest_csv(_write_csv(tmp_path / "c.csv", "a,label\n1,3\n2,1\n"))
    with pytest.raises(ValueError, match="header"):
        ingest_csv(_write_csv(tmp_path / "d.csv", ""))
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(_write_csv(tmp_path / "e.csv", "a,label\n"))
    with pytest.raises(ValueError, match="expected 2 fields"):
        ingest_csv(_write_csv(tmp_path / "f.csv", "a,label\n1,2,3\n"))


def test_subsample_properties():
    data = synthetic_dataset(100, 4, seed=5)
    sub = subsample(data, 30, np.random.default_rng(1))
    assert sub.n == 30 and sub.dim == 4
    assert sub.sampler is data.sampler
    # every row came from the parent
    parent_rows = {tuple(r) for r in data.x}
    assert all(tuple(r) in parent_rows for r in sub.x)
    # without replacement: all distinct
    assert len({tuple(r) for r in sub.x}) == 30
    with pytest.raises(ValueError):
        subsample(data, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        subsample(data, 101, np.random.default_rng(0))


def test_make_neighbor_resample_differs_only_at_j():
    data = synthetic_dataset(40, 6, seed=2)
    nb = make_neighbor(data, 7, "resample", np.random.default_rng(11))
    same = np.all(data.x == nb.x, axis=1) & (data.y == nb.y)
    assert not same[7]
    assert same[np.arange(40) != 7].all()


def test_make_neighbor_flip():
    data = synthetic_dataset(10, 3, seed=2)
    nb = make_neighbor(data, 4, "flip", np.random.default_rng(0))
    np.testing.assert_array_equal(data.x, nb.x)
    assert nb.y[4] == -data.y[4]
    with pytest.raises(ValueError, match="unknown neighbor mode"):
        make_neighbor(data, 0, "swap", np.random.default_rng(0))
    with pytest.raises(ValueError, match="record index"):
        make_neighbor(data, 10, "flip", np.random.default_rng(0))


def test_effective_sector():
    x = np.array([[3.0, 4.0], [1.0, 0.0]])  # max row norm^2 = 25
    data = Dataset(x=x, y=np.array([1.0, -1.0]))
    sector = effective_sector(data, lam=0.01)
    assert sector.gamma == pytest.approx(0.01)
    assert sector.beta == pytest.approx(0.01 + 6.25)
    with pytest.raises(ValueError):
        effective_sector(data, lam=0.0)


def test_effective_sector_gradient_estimate():
    data = synthetic_dataset(80, 6, seed=4)
    lam = 0.01
    sector = effective_sector(data, lam)
    assert sector.grad_bound is not None and sector.grad_bound > 0.0
    # the origin is in the probe grid, where the per-sample gradient
    # norm is ||x_i|| / 2, so the estimate is at least that
    half_norms = 0.5 * np.sqrt((data.x**2).sum(axis=1))
    assert sector.grad_bound >= half_norms.max() - 1e-12
    # and never exceeds the crude bound ||x|| + lam ||w|| on the grid
    crude = np.sqrt((data.x**2).sum(axis=1)).max() + lam * 1.0
    assert sector.grad_bound <= crude + 1e-12
    # deterministic in the seed
    again = effective_sector(data, lam)
    assert again.grad_bound == sector.grad_bound


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
def test_effective_sector_rejects_bad_regularization(value):
    with pytest.raises(ValueError, match="lambda_reg must be positive and finite"):
        effective_sector(synthetic_dataset(20, 3, seed=1), value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_synthetic_dataset_rejects_non_finite_separation(value):
    with pytest.raises(ValueError, match="separation must be finite"):
        synthetic_dataset(20, 3, separation=value)
