import hypothesis.strategies as st

from perclab import ExponentSpec, ProbSequence

# Parameter ranges mirror what the analytic layer is calibrated for at the
# default window: moderate base probabilities and short exponent prefixes.


def mfp_seqs(p_lo=0.3, p_hi=0.97):
    return st.builds(ProbSequence.mfp, st.floats(p_lo, p_hi))


def head_seqs(p_lo=0.3, p_hi=0.97):
    return st.builds(ProbSequence.power_head, st.floats(p_lo, p_hi), st.floats(1.0, 3.0))


def telescope_seqs(p_lo=0.3, p_hi=0.97):
    return st.builds(ProbSequence.power_telescope, st.floats(p_lo, p_hi), st.floats(0.05, 0.9))


def power_tail_seqs(p_lo=0.3, p_hi=0.97):
    def build(p, tail, values):
        # keep exponents non-increasing toward the tail so p_k stays monotone
        vals = sorted(values, reverse=True)
        vals = [max(v, tail) for v in vals]
        return ProbSequence.power(p, ExponentSpec.explicit_list(vals, tail))

    return st.builds(
        build,
        st.floats(p_lo, p_hi),
        st.floats(0.5, 1.5),
        st.lists(st.floats(0.5, 2.0), min_size=0, max_size=4),
    )


def catalog_seqs(p_lo=0.3, p_hi=0.97):
    return st.one_of(
        mfp_seqs(p_lo, p_hi),
        head_seqs(p_lo, p_hi),
        telescope_seqs(p_lo, p_hi),
        power_tail_seqs(p_lo, p_hi),
    )


def harmonic_seqs(p_lo=0.3, p_hi=0.97):
    # kept out of catalog_seqs: its windowed means carry a |ln p| / (k_lo + 1)
    # transient, so it fails the windowed-vs-analytic alpha bound by design
    return st.builds(ProbSequence.power_harmonic, st.floats(p_lo, p_hi))


def explicit_tail_seqs():
    def build(values, tail):
        # a non-decreasing prefix below its tail, so p_k stays monotone
        return ProbSequence.explicit(sorted(min(v, tail) for v in values), tail=tail)

    return st.builds(
        build,
        st.lists(st.floats(0.05, 1.0), min_size=0, max_size=6),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    )


def geometries():
    return st.tuples(st.integers(1, 3), st.integers(2, 3))
