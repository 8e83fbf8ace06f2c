"""Sequence families, log-space products, and the alpha/beta classifiers."""

import json
import math

import pytest
from hypothesis import given, settings

from conftest import catalog_seqs, geometries
from perclab import (
    ClassifierReport,
    ExponentSpec,
    InvalidParamsError,
    ProbSequence,
    WindowTooSmallError,
    alpha_estimate,
    beta_estimate,
    classify,
)
from perclab import probseq


# -- evaluation -------------------------------------------------------------


def test_mfp_is_constant():
    seq = ProbSequence.mfp(0.7)
    assert seq.p_at(5) == 0.7
    assert seq.p_at(1) == seq.p_at(1000) == 0.7


def test_telescope_first_term():
    # exponent at k=1 is a^0 - a^1 = 1 - a
    seq = ProbSequence.power_telescope(0.5, 0.5)
    assert seq.p_at(1) == 0.5 ** (1 - 0.5)
    assert seq.p_at(1) == pytest.approx(0.7071067811865476)


def test_constant_one_explicit_tail():
    seq = ProbSequence.explicit([1.0], tail=1.0)
    assert seq.p_at(99) == 1.0


def test_head_family_values():
    seq = ProbSequence.power_head(0.8, 2.5)
    assert seq.p_at(1) == 0.8**2.5
    assert seq.p_at(2) == 0.8
    assert seq.p_at(77) == 0.8


def test_eval_rejects_k_zero():
    with pytest.raises(InvalidParamsError):
        ProbSequence.mfp(0.5).p_at(0)


def test_explicit_needs_prefix_or_tail():
    with pytest.raises(InvalidParamsError):
        ProbSequence.explicit([])


def test_explicit_without_tail_is_finite():
    seq = ProbSequence.explicit([0.5, 0.6])
    assert seq.p_at(2) == 0.6
    with pytest.raises(InvalidParamsError):
        seq.p_at(3)


def test_probability_domain_checks():
    with pytest.raises(InvalidParamsError):
        ProbSequence.mfp(1.0)  # mfp is open at the top
    with pytest.raises(InvalidParamsError):
        ProbSequence.mfp(0.0)
    with pytest.raises(InvalidParamsError):
        ProbSequence.explicit([0.5, 1.5])
    with pytest.raises(InvalidParamsError):
        ProbSequence.power_head(0.5, 0.9)  # needs a >= 1
    with pytest.raises(InvalidParamsError):
        ProbSequence.power_head(0.5, float("nan"))
    with pytest.raises(InvalidParamsError):
        ProbSequence.power_telescope(0.5, 1.0)  # needs a < 1


def test_non_monotone_explicit_strict_and_flagged():
    with pytest.raises(InvalidParamsError):
        ProbSequence.explicit([0.9, 0.5], tail=0.95)
    with pytest.warns(UserWarning):
        seq = ProbSequence.explicit([0.9, 0.5], tail=0.95, strict=False)
    assert seq.p_at(2) == 0.5


@pytest.mark.parametrize(
    "espec, cesaro, series",
    [
        (ExponentSpec.constant_one(), 1.0, {1: math.inf, 4: math.inf}),
        (ExponentSpec.explicit_list([3.0, 2.0], 1.5), 1.5, {1: math.inf, 2: math.inf}),
        (ExponentSpec.explicit_list([], 0.25), 0.25, {1: math.inf}),
        # (1 - a) base / (1 - a base) while a base < 1; the gaps sum to exactly 1
        (ExponentSpec.geometric_gap(0.25), 0.0, {1: 1.0, 2: 3.0, 3: 9.0, 4: math.inf, 8: math.inf}),
        (ExponentSpec.geometric_gap(0.1), 0.0, {1: 1.0, 9: 0.9 * 9 / (1.0 - 0.1 * 9), 10: math.inf}),
        (ExponentSpec.geometric_gap(0.7), 0.0, {1: 1.0, 2: math.inf}),
    ],
)
def test_exponent_rule_cesaro_limit_and_series(espec, cesaro, series):
    assert espec.cesaro_limit() == cesaro
    for base, expected in series.items():
        assert espec.series(base) == expected, base


# -- log prefix products ------------------------------------------------------


def test_log_prefix_product_matches_direct_sum():
    seq = ProbSequence.mfp(0.5)
    assert seq.log_prefix_product(3) == pytest.approx(3 * math.log(0.5), abs=1e-15)
    assert seq.log_prefix_product(3) == pytest.approx(-2.0794415416798357)


def test_log_prefix_product_all_ones_is_zero():
    seq = ProbSequence.explicit([], tail=1.0)
    assert seq.log_prefix_product(10) == 0.0


def test_telescope_log_product_telescopes():
    # sum of exponents through k is 1 - a^k, so the log product tends to ln p
    seq = ProbSequence.power_telescope(0.5, 0.5)
    assert seq.log_prefix_product(200) == pytest.approx(math.log(0.5), rel=1e-12)
    direct = sum(math.log(seq.p_at(k)) for k in range(1, 31))
    assert seq.log_prefix_product(30) == pytest.approx(direct, abs=1e-12)


# -- classifier ---------------------------------------------------------------


def test_boundary_alpha_counts_as_extinction():
    rep = classify(ProbSequence.mfp(0.5), 1, 2)
    assert rep.alpha == 0.5
    assert rep.alpha_method == "analytic"
    assert rep.survival_class == "empty_as"


def test_supercritical_mfp_classifies_survival():
    rep = classify(ProbSequence.mfp(0.9), 1, 2)
    assert rep.survival_class == "positive_survival"
    assert rep.beta == 0.0  # the interior weight series diverges for p < 1
    assert rep.interior_class == "empty_interior"


def test_beta_closed_form_for_convergent_telescope():
    # a m^n < 1 makes the weight series geometric:
    # sum = (1-a) m^n / (1 - a m^n), here 0.8*2/0.6
    rep = classify(ProbSequence.power_telescope(0.5, 0.2), 1, 2)
    expected = 0.5 ** (0.8 * 2 / 0.6)
    assert rep.beta == pytest.approx(expected, rel=1e-12)
    assert rep.interior_class == "non_empty_interior"
    # windowed partial products agree
    win = classify(ProbSequence.power_telescope(0.5, 0.2), 1, 2, method="windowed")
    assert win.beta == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("a, n, m", [(0.5, 1, 2), (0.5, 2, 2), (0.2, 1, 5), (0.2, 3, 2)])
def test_beta_diverges_for_telescope_with_a_mn_at_least_one(a, n, m):
    rep = classify(ProbSequence.power_telescope(0.5, a), n, m)
    assert rep.beta_method == "analytic"
    assert rep.beta == 0.0
    assert rep.beta_diverged is True
    assert rep.interior_class == "empty_interior"


def test_beta_partial_product_example():
    # p_k = exp(-8^-k): the weight series is sum 2^k 8^-k = 1/3
    prefix = [math.exp(-(8.0**-k)) for k in range(1, 41)]
    seq = ProbSequence.explicit(prefix, tail=1.0)
    rep = classify(seq, 1, 2)
    assert rep.alpha_method == "windowed"
    assert rep.beta == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-9)
    assert rep.interior_class == "non_empty_interior"
    assert not rep.beta_diverged


def test_beta_divergence_flag_on_explicit():
    rep = classify(ProbSequence.explicit([], tail=0.9), 1, 2)
    assert rep.beta == 0.0
    assert rep.beta_diverged
    assert rep.interior_class == "empty_interior"


def test_window_too_small_only_for_windowed_path():
    with pytest.raises(WindowTooSmallError):
        classify(ProbSequence.explicit([], tail=0.9), 1, 2, window=(10, 15))
    # analytic path never touches the window beyond sanity checks
    rep = classify(ProbSequence.mfp(0.9), 1, 2, window=(10, 15))
    assert rep.alpha == 0.9


def test_window_sanity():
    with pytest.raises(InvalidParamsError):
        classify(ProbSequence.mfp(0.9), 1, 2, window=(0, 64))
    with pytest.raises(InvalidParamsError):
        classify(ProbSequence.mfp(0.9), 1, 2, window=(64, 64))


def test_classify_is_pure():
    seq = ProbSequence.power_telescope(0.6, 0.3)
    a = classify(seq, 2, 3)
    b = classify(seq, 2, 3)
    assert a == b and isinstance(a, ClassifierReport)


@pytest.mark.parametrize("seq", [ProbSequence.mfp(0.9), ProbSequence.explicit([], tail=0.9)])
def test_classify_checks_window_and_resolves_method_once(monkeypatch, seq):
    calls = {"check_window": 0, "resolve_method": 0}

    def counted(name):
        original = getattr(probseq, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(probseq, name, counted(name))
    classify(seq, 1, 2)
    assert calls == {"check_window": 1, "resolve_method": 1}


def test_standalone_beta_reads_a_prefix_shorter_than_the_window():
    # classify's alpha needs the sequence through k_hi; beta alone does not
    seq = ProbSequence.explicit([0.9] * 20)
    with pytest.raises(InvalidParamsError):
        classify(seq, 1, 2)
    beta, method, diverged = beta_estimate(seq, 1, 2)
    assert (method, diverged) == ("windowed", True)
    assert beta == 0.0


def test_partial_products_nonincreasing_in_window_top():
    seq = ProbSequence.explicit([math.exp(-(2.0**-k)) for k in range(1, 31)], tail=1.0)
    beta_128 = classify(seq, 1, 2, window=(64, 128)).beta
    beta_512 = classify(seq, 1, 2, window=(64, 512)).beta
    assert beta_512 <= beta_128


# -- analytic vs windowed alpha ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seq=catalog_seqs())
def test_windowed_alpha_tracks_analytic(seq):
    analytic, _ = alpha_estimate(seq, method="analytic")
    windowed, method = alpha_estimate(seq, method="windowed")
    assert method == "windowed"
    assert abs(windowed - analytic) < 1e-3


@settings(max_examples=60, deadline=None)
@given(seq=catalog_seqs(), nm=geometries())
def test_alpha_bounds(seq, nm):
    n, m = nm
    rep = classify(seq, n, m)
    assert seq.p_at(1) - 1e-12 <= rep.alpha <= 1.0
    win, _ = alpha_estimate(seq, method="windowed")
    assert win <= 1.0


# -- wire format ---------------------------------------------------------------


@pytest.mark.parametrize(
    "seq",
    [
        ProbSequence.mfp(0.7),
        ProbSequence.power_head(0.6, 1.5),
        ProbSequence.power_telescope(0.8, 0.25),
        ProbSequence.explicit([0.4, 0.5], tail=0.9),
        ProbSequence.explicit([0.4, 0.5]),
        ProbSequence.power(0.6, ExponentSpec.constant_one()),
        ProbSequence.power(0.6, ExponentSpec.geometric_gap(0.3)),
        ProbSequence.power(0.6, ExponentSpec.explicit_list([2.0, 1.5], 1.0)),
    ],
)
def test_json_round_trip(seq):
    d = json.loads(json.dumps(seq.to_dict()))
    assert set(d) <= {"kind", "p", "a", "prefix", "tail"}
    back = ProbSequence.from_dict(d)
    assert back == seq
    assert back.to_dict() == d
    for k in (1, 2, 3, 7):
        try:
            expected = seq.p_at(k)
        except InvalidParamsError:
            with pytest.raises(InvalidParamsError):
                back.p_at(k)
            continue
        assert back.p_at(k) == expected


@pytest.mark.parametrize(
    "seq, wire",
    [
        (ProbSequence.power_head(0.6, 1.5), {"kind": "power_head", "p": 0.6, "a": 1.5}),
        (ProbSequence.power_telescope(0.8, 0.25), {"kind": "power_telescope", "p": 0.8, "a": 0.25}),
        (ProbSequence.mfp(0.7), {"kind": "mfp", "p": 0.7}),
    ],
)
def test_catalog_wire_dicts_exact(seq, wire):
    # key order too: the CLI sorts keys, library callers may not
    assert list(seq.to_dict().items()) == list(wire.items())


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(InvalidParamsError):
        ProbSequence.from_dict({"kind": "nope", "p": 0.5})
    with pytest.raises(InvalidParamsError):
        ProbSequence.from_dict({"kind": "mfp"})
