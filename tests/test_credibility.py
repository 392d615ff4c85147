import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from noisylearn import credibility, data, harness, numnet
from noisylearn.credibility import Stage2Config
from noisylearn.errors import ConfigError, DegenerateMixtureError

VAR_FLOOR = 1e-6


def reference_em(values, tol=1e-6, max_iter=200):
    """Independent loop-based EM for a two-component 1-D mixture.

    Same initialization rule as the production fit, all math written as
    per-sample loops so the two can only agree if the updates agree.
    """
    values = [float(v) for v in values]
    n = len(values)
    lo, hi = np.percentile(values, [10.0, 90.0])
    means = [float(lo), float(hi)]
    pooled = max(float(np.var(values)), VAR_FLOOR)
    variances = [pooled, pooled]
    weights = [0.5, 0.5]
    trace = []

    def log_pdf(x, m, v):
        return -0.5 * math.log(2.0 * math.pi * v) - (x - m) ** 2 / (2.0 * v)

    for _ in range(max_iter):
        resp = []
        ll = 0.0
        for x in values:
            lj = [math.log(weights[k]) + log_pdf(x, means[k], variances[k])
                  for k in range(2)]
            m = max(lj)
            norm = m + math.log(sum(math.exp(v - m) for v in lj))
            resp.append([math.exp(lj[k] - norm) for k in range(2)])
            ll += norm
        trace.append(ll / n)
        for k in range(2):
            count = max(sum(r[k] for r in resp), 1e-12)
            weights[k] = count / n
            means[k] = sum(r[k] * x for r, x in zip(resp, values)) / count
            var = sum(r[k] * (x - means[k]) ** 2
                      for r, x in zip(resp, values)) / count
            variances[k] = max(var, VAR_FLOOR)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            break

    order = sorted(range(2), key=lambda k: means[k])
    return ([means[k] for k in order], [variances[k] for k in order],
            [weights[k] for k in order], trace)


def bimodal_sample(n=500, seed=42):
    rng = np.random.default_rng(seed)
    low = rng.normal(0.2, 0.05, size=n)
    high = rng.normal(2.0, 0.3, size=n)
    pick = rng.random(n) < 0.5
    return np.where(pick, low, high)


# ---------------------------------------------------------------------------
# EM


def test_em_recovers_known_mixture():
    values = bimodal_sample()
    gmm = credibility.fit_gmm_em(values)
    assert abs(gmm.means[0] - 0.2) < 0.1
    assert abs(gmm.means[1] - 2.0) < 0.1
    assert gmm.weights[0] + gmm.weights[1] == pytest.approx(1.0)
    assert np.all(np.asarray(gmm.variances) >= VAR_FLOOR)


def test_em_matches_independent_reference():
    values = bimodal_sample(seed=43)
    gmm = credibility.fit_gmm_em(values)
    means, variances, weights, trace = reference_em(values)
    assert np.allclose(gmm.means, means, atol=1e-8)
    assert np.allclose(gmm.variances, variances, atol=1e-8)
    assert np.allclose(gmm.weights, weights, atol=1e-8)
    assert len(gmm.log_likelihood_trace) == len(trace)
    assert np.allclose(gmm.log_likelihood_trace, trace, atol=1e-8)


def test_em_log_likelihood_monotone():
    values = bimodal_sample(seed=44)
    gmm = credibility.fit_gmm_em(values)
    diffs = np.diff(gmm.log_likelihood_trace)
    assert np.all(diffs >= -1e-9)


def test_em_mirrored_data_gives_mirrored_means():
    values = bimodal_sample(seed=45)
    centered = values - values.mean()
    a = credibility.fit_gmm_em(centered)
    b = credibility.fit_gmm_em(-centered)
    assert a.means[0] == pytest.approx(-b.means[1], abs=1e-6)
    assert a.means[1] == pytest.approx(-b.means[0], abs=1e-6)


def test_em_components_ordered_by_mean():
    values = bimodal_sample(seed=46)
    gmm = credibility.fit_gmm_em(values)
    assert gmm.means[0] <= gmm.means[1]


def nested_sample():
    """A wide low-mean component around a narrow high-mean one, as the
    normalized stage-2 losses at 90 % noise look; quantiles, not draws."""
    def quantiles(mean, var, k):
        return stats.norm.ppf((np.arange(k) + 0.5) / k, mean, math.sqrt(var))

    return np.concatenate([quantiles(0.43, 0.022, 3600),
                           quantiles(0.478, 0.005, 900)])


def test_em_flags_nested_components_as_unconverged():
    gmm = credibility.fit_gmm_em(nested_sample())
    assert not gmm.converged
    assert len(gmm.log_likelihood_trace) == 200
    assert credibility.fit_gmm_em(bimodal_sample()).converged


def stacked_fit_gmm_em(values, tol=credibility.EM_TOL, max_iter=200):
    """The EM as it was written on stacked (n, 2) arrays, kept as the
    bit-exact reference for the per-component one."""
    values = np.asarray(values, dtype=np.float64).ravel()
    means = np.percentile(values, [10.0, 90.0]).astype(np.float64)
    if means[0] == means[1]:
        means = np.array([values.min(), values.max()], dtype=np.float64)
    pooled = max(float(values.var()), VAR_FLOOR)
    variances = np.array([pooled, pooled])
    weights = np.array([0.5, 0.5])
    trace = []
    converged = False
    for _ in range(max_iter):
        log_joint = np.stack([
            np.log(weights[k])
            + credibility._log_gauss(values, means[k], variances[k])
            for k in range(2)
        ], axis=1)
        row_max = log_joint.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(
            np.exp(log_joint - row_max).sum(axis=1))
        resp = np.exp(log_joint - log_norm[:, None])
        trace.append(float(log_norm.mean()))
        counts = np.maximum(resp.sum(axis=0), 1e-12)
        weights = counts / values.size
        means = (resp * values[:, None]).sum(axis=0) / counts
        variances = (resp * (values[:, None] - means) ** 2).sum(axis=0) / counts
        variances = np.maximum(variances, VAR_FLOOR)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
    order = np.argsort(means, kind="stable")
    return credibility.Gmm1D(means=means[order], variances=variances[order],
                             weights=weights[order],
                             log_likelihood_trace=trace, converged=converged)


def stacked_gmm_posterior(gmm, values, k):
    """Posterior of component k on a stacked (..., 2) log joint."""
    arr = np.asarray(values, dtype=np.float64)
    log_joint = np.stack([
        np.log(gmm.weights[j])
        + credibility._log_gauss(arr, gmm.means[j], gmm.variances[j])
        for j in range(2)
    ], axis=-1)
    row_max = log_joint.max(axis=-1, keepdims=True)
    log_norm = row_max[..., 0] + np.log(
        np.exp(log_joint - row_max).sum(axis=-1))
    return np.exp(log_joint[..., k] - log_norm)


def assert_em_matches_stacked_reference(values):
    gmm = credibility.fit_gmm_em(values)
    ref = stacked_fit_gmm_em(values)
    for name in ("means", "variances", "weights"):
        assert getattr(gmm, name).tobytes() == getattr(ref, name).tobytes()
    assert gmm.log_likelihood_trace == ref.log_likelihood_trace
    assert gmm.converged == ref.converged
    for k in (0, 1):
        post = credibility.gmm_posterior(gmm, values, k)
        assert post.tobytes() == stacked_gmm_posterior(ref, values, k).tobytes()
        assert credibility.gmm_posterior(gmm, values[:1], k).tobytes() \
            == stacked_gmm_posterior(ref, values[:1], k).tobytes()
    return gmm


def test_em_matches_stacked_reference_on_nested_sample():
    gmm = assert_em_matches_stacked_reference(nested_sample())
    assert len(gmm.log_likelihood_trace) == 200


@pytest.mark.parametrize("seed", [42, 43, 44])
def test_em_matches_stacked_reference_on_bimodal_samples(seed):
    assert_em_matches_stacked_reference(bimodal_sample(seed=seed))


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4,
                max_size=300).filter(lambda v: np.ptp(v) > 0))
@example([-0.0, -0.0, -0.0, -1.0])  # a component whose r * values are all -0.0
@settings(max_examples=60, deadline=None)
def test_em_matches_stacked_reference_on_drawn_samples(values):
    assert_em_matches_stacked_reference(np.array(values))


def test_em_degenerate_input_raises():
    with pytest.raises(DegenerateMixtureError):
        credibility.fit_gmm_em(np.full(50, 3.3))


def test_em_rejects_tiny_or_nonfinite_samples():
    with pytest.raises(ConfigError):
        credibility.fit_gmm_em(np.array([1.0, 2.0, 3.0]))
    from noisylearn.errors import NumericError
    with pytest.raises(NumericError):
        credibility.fit_gmm_em(np.array([1.0, np.nan, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# posteriors


def symmetric_gmm():
    return credibility.Gmm1D(means=np.array([-1.0, 1.0]),
                             variances=np.array([0.25, 0.25]),
                             weights=np.array([0.5, 0.5]),
                             log_likelihood_trace=[0.0])


def posterior_at(gmm, value, k):
    """Component k's posterior at one value, through a 1-element array."""
    post = credibility.gmm_posterior(gmm, np.array([value]), k)
    assert post.shape == (1,)
    return float(post[0])


def test_posterior_midpoint_is_half():
    g = symmetric_gmm()
    assert posterior_at(g, 0.0, 0) == pytest.approx(0.5)
    assert posterior_at(g, 0.0, 1) == pytest.approx(0.5)


def test_posterior_sums_to_one_everywhere():
    g = credibility.Gmm1D(means=np.array([0.1, 1.7]),
                          variances=np.array([0.04, 0.3]),
                          weights=np.array([0.7, 0.3]),
                          log_likelihood_trace=[0.0])
    for v in np.linspace(-2.0, 4.0, 25):
        low = posterior_at(g, v, 0)
        high = posterior_at(g, v, 1)
        assert low + high == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= low <= 1.0


def test_posterior_confident_at_component_mean():
    g = credibility.Gmm1D(means=np.array([0.0, 10.0]),
                          variances=np.array([0.01, 0.01]),
                          weights=np.array([0.5, 0.5]),
                          log_likelihood_trace=[0.0])
    assert posterior_at(g, 0.0, 0) > 0.99
    assert posterior_at(g, 10.0, 1) > 0.99


def test_posterior_vectorized():
    g = symmetric_gmm()
    out = credibility.gmm_posterior(g, np.array([-1.0, 0.0, 1.0]), 0)
    assert out.shape == (3,)
    assert out[0] > 0.99 and out[2] < 0.01


# ---------------------------------------------------------------------------
# credibility scores


def test_assess_credibility_separates_obvious_groups():
    losses = np.concatenate([np.random.default_rng(0).normal(0.05, 0.01, 60),
                             np.random.default_rng(1).normal(2.0, 0.2, 40)])
    confs = np.concatenate([np.random.default_rng(2).normal(0.95, 0.01, 60),
                            np.random.default_rng(3).normal(0.3, 0.05, 40)])
    scores = credibility.assess_credibility(losses, confs)
    assert np.all(scores.p_clean[:60] > 0.9)
    assert np.all(scores.p_clean[60:] < 0.1)
    assert np.all(scores.p_right[:60] > 0.9)
    assert np.all(scores.p_right[60:] < 0.1)
    assert scores.loss_gmm is not None


def test_assess_credibility_affine_invariant_losses():
    rng = np.random.default_rng(4)
    losses = np.concatenate([rng.normal(0.1, 0.02, 50), rng.normal(1.5, 0.1, 50)])
    confs = np.concatenate([rng.normal(0.9, 0.02, 50), rng.normal(0.2, 0.05, 50)])
    a = credibility.assess_credibility(losses, confs)
    b = credibility.assess_credibility(losses * 7.0 + 3.0, confs)
    assert np.allclose(a.p_clean, b.p_clean, atol=1e-9)


def test_assess_credibility_degenerate_fallback():
    confs = np.linspace(0.2, 0.9, 20)
    scores = credibility.assess_credibility(np.full(20, 0.7), confs)
    assert np.all(scores.p_clean == 1.0)
    assert scores.loss_gmm is None
    scores2 = credibility.assess_credibility(np.linspace(0, 1, 20),
                                             np.full(20, 0.5))
    assert np.all(scores2.p_right == 1.0)


# ---------------------------------------------------------------------------
# transfer


def make_scores(p_clean, p_right):
    n = len(p_clean)
    return credibility.CredibilityScores(
        p_clean=np.asarray(p_clean, dtype=float),
        p_right=np.asarray(p_right, dtype=float),
        losses=np.zeros(n), confidences=np.zeros(n))


def test_transfer_thresholds_are_inclusive():
    y_noisy = np.array([0, 1, 2])
    y_pred = np.array([2, 2, 2])
    scores = make_scores([0.5, 0.2, 0.2], [0.1, 0.5, 0.2])
    out = credibility.transfer_labels(y_noisy, y_pred, scores,
                                      Stage2Config(), n_classes=3)
    by_index = {e.index: e for e in out.labeled}
    assert by_index[0].origin == "kept" and by_index[0].label == 0
    assert by_index[1].origin == "corrected" and by_index[1].label == 2
    assert out.unlabeled.tolist() == [2]


def test_transfer_all_kept_when_fully_credible():
    y_noisy = np.array([1, 0, 2, 1])
    out = credibility.transfer_labels(
        y_noisy, np.zeros(4, dtype=int),
        make_scores(np.ones(4), np.zeros(4)), Stage2Config(), n_classes=3)
    assert len(out.labeled) == 4
    assert all(e.origin == "kept" for e in out.labeled)
    assert np.array_equal(out.labeled_targets().argmax(axis=1), y_noisy)
    assert out.unlabeled.size == 0


def test_transfer_all_unknown_when_nothing_credible():
    out = credibility.transfer_labels(
        np.array([0, 1]), np.array([1, 0]),
        make_scores([0.0, 0.0], [0.0, 0.0]), Stage2Config(), n_classes=2)
    assert len(out.labeled) == 0
    assert out.unlabeled.tolist() == [0, 1]


def test_transfer_kept_wins_over_corrected():
    # a sample passing both gates keeps its observed label
    out = credibility.transfer_labels(
        np.array([0]), np.array([1]),
        make_scores([0.9], [0.9]), Stage2Config(), n_classes=2)
    assert out.labeled[0].origin == "kept"
    assert out.labeled[0].label == 0


@given(st.integers(0, 2 ** 31 - 1), st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_transfer_partition_property(seed, n):
    rng = np.random.default_rng(seed)
    y_noisy = rng.integers(0, 4, n)
    y_pred = rng.integers(0, 4, n)
    scores = make_scores(rng.random(n), rng.random(n))
    out = credibility.transfer_labels(y_noisy, y_pred, scores,
                                      Stage2Config(), n_classes=4)
    labeled_idx = [e.index for e in out.labeled]
    combined = sorted(labeled_idx + list(out.unlabeled))
    assert combined == list(range(n))
    for e in out.labeled:
        if e.origin == "kept":
            assert e.label == y_noisy[e.index]
        else:
            assert e.label == y_pred[e.index]


def reference_transfer(y_noisy, y_pred, p_clean, p_right, tau_clean,
                       tau_right):
    """The per-row rule: keep if p_clean >= tau_clean, else correct if
    p_right >= tau_right, else unlabeled."""
    labeled, unlabeled = [], []
    for i in range(len(y_noisy)):
        if p_clean[i] >= tau_clean:
            labeled.append((i, int(y_noisy[i]), "kept"))
        elif p_right[i] >= tau_right:
            labeled.append((i, int(y_pred[i]), "corrected"))
        else:
            unlabeled.append(i)
    return labeled, unlabeled


def scores_near(threshold):
    """Scores drawn at, just below, just above, or away from a threshold."""
    return st.one_of(
        st.just(threshold),
        st.just(float(np.nextafter(threshold, -np.inf))),
        st.just(float(np.nextafter(threshold, np.inf))),
        st.floats(0.0, 1.0))


@given(st.data(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_transfer_matches_per_row_rule(data_, tau_clean, tau_right, n):
    p_clean = data_.draw(st.lists(scores_near(tau_clean), min_size=n,
                                  max_size=n))
    p_right = data_.draw(st.lists(scores_near(tau_right), min_size=n,
                                  max_size=n))
    y_noisy = data_.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    y_pred = data_.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    out = credibility.transfer_labels(
        np.array(y_noisy), np.array(y_pred), make_scores(p_clean, p_right),
        Stage2Config(tau_clean=tau_clean, tau_right=tau_right), n_classes=4)
    labeled, unlabeled = reference_transfer(y_noisy, y_pred, p_clean, p_right,
                                            tau_clean, tau_right)
    assert out.labeled.tolist() == labeled
    assert out.unlabeled.tolist() == unlabeled
    assert out.labeled_indices().tolist() == [i for i, _, _ in labeled]
    assert out.unlabeled_indices().tolist() == unlabeled


def test_transfer_monotone_in_thresholds():
    rng = np.random.default_rng(11)
    y_noisy = rng.integers(0, 3, 40)
    y_pred = rng.integers(0, 3, 40)
    scores = make_scores(rng.random(40), rng.random(40))
    kept_sizes = []
    for tau in (0.2, 0.5, 0.8):
        out = credibility.transfer_labels(
            y_noisy, y_pred, scores,
            Stage2Config(tau_clean=tau, tau_right=0.5), n_classes=3)
        kept_sizes.append(sum(1 for e in out.labeled if e.origin == "kept"))
    assert kept_sizes[0] >= kept_sizes[1] >= kept_sizes[2]


# ---------------------------------------------------------------------------
# frozen-probe training


def test_probe_leaves_encoder_untouched(tiny_blobs):
    encoder = numnet.init_mlp([6, 8], [], seed=3)
    before = [(n, a.copy()) for n, a in encoder.walk()]
    harness.run_stage2(encoder, tiny_blobs, harness.Stage2Config(epochs=3),
                       seed=4)
    for (name, old), (_, new) in zip(before, encoder.walk()):
        assert np.array_equal(old, new), name


def test_probe_on_uninformative_encoder_hits_class_prior(tiny_blobs):
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=5)
    for layer in encoder.encoder:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    embedded = harness.embed_dataset(encoder, tiny_blobs)
    res = credibility.train_frozen_classifier(embedded, Stage2Config(epochs=5),
                                              seed=6, test_dataset=embedded)
    # identical embeddings force a single predicted class
    assert res.test_accuracy[-1] == pytest.approx(1.0 / 3.0)


def test_probe_learns_separable_data(tiny_blobs):
    encoder = numnet.init_mlp([6, 16, 8], [8, 3], seed=7)
    embedded = harness.embed_dataset(encoder, tiny_blobs)
    res = credibility.train_frozen_classifier(
        embedded, Stage2Config(epochs=30, lr=0.02), seed=8,
        test_dataset=embedded)
    assert res.train_accuracy[-1] > 0.9
    assert len(res.loss_curve) == 30


def test_per_sample_stats_uniform_head(tiny_blobs):
    encoder = numnet.init_mlp([6, 8], [8, 3], seed=9)
    flat_head = numnet.MlpParams(
        encoder=[], classifier=[numnet.Layer(np.zeros((8, 3)), np.zeros(3))])
    losses, confs, y_pred = credibility.per_sample_stats(
        flat_head, harness.embed_dataset(encoder, tiny_blobs))
    assert np.allclose(losses, math.log(3), atol=1e-12)
    assert np.allclose(confs, 1.0 / 3.0, atol=1e-12)
    assert np.all(y_pred == 0)  # argmax tie -> lowest index
    assert losses.shape == (len(tiny_blobs),)
