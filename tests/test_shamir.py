"""Sharing layer: the draw, evaluation and fit rules, sharing,
reconstruction, privacy."""

import random

import pytest

from metershare import field
from metershare.errors import (
    DegreeMismatch,
    InconsistentShares,
    InsufficientShares,
    InvalidParams,
    PartyMismatch,
)
from metershare.shamir import (
    PRIME,
    RAND_BITS,
    Share,
    SharingParams,
    draw,
    evaluate,
    extend_to_secret,
    fit,
    fit_rule,
    reconstruct,
    share,
    share_values,
)


def naive_poly(coeffs, x):
    # reference evaluation, no Horner
    return sum(c * pow(x, i, field.PRIME) for i, c in enumerate(coeffs)) % field.PRIME


@pytest.mark.parametrize("where", [None, "first", "middle", "last", "all"])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_draw_matches_randrange(k, where, force_rejects):
    # the one draw rule: a word >= p at any draw is dropped and the next
    # word taken, exactly as k randrange calls do
    ours, ref = random.Random(k), random.Random(k)
    if where is not None:
        at = {"first": {0}, "middle": {k // 2}, "last": {k - 1},
              "all": set(range(k))}[where]
        force_rejects(ours, at)
        force_rejects(ref, at)
    assert draw(ours, k) == [ref.randrange(PRIME) for _ in range(k)]
    assert ours.getstate() == ref.getstate()
    assert draw(ours, 0) == []
    assert ours.getstate() == ref.getstate()


def test_evaluate_matches_naive_poly(rng):
    xs = [0, 1, 2, 7, 255, PRIME - 1]
    for t in range(5):
        coeffs = [rng.randrange(PRIME) for _ in range(t + 1)]
        want = [naive_poly(coeffs, x) for x in xs]
        assert evaluate(coeffs, xs) == want
        assert evaluate(tuple(coeffs), iter(xs)) == want
    assert evaluate([5, 1], []) == []


def test_share_values_matches_naive_polynomial(rng):
    # t = 1 takes the unrolled path, larger t the Horner loop; a twin rng
    # gives the coefficients share_values draws
    for t in (1, 2, 3):
        for _ in range(50):
            n = rng.randint(2 * t + 1, 12)
            secret = rng.randrange(field.PRIME)
            seed = rng.getrandbits(64)
            vals = share_values(secret, n, t, random.Random(seed))
            twin = random.Random(seed)
            coeffs = [twin.randrange(field.PRIME) for _ in range(t)]
            assert vals == [naive_poly([secret] + coeffs, x)
                            for x in range(1, n + 1)]


class ScriptedBits(random.Random):
    """Replays scripted words for every getrandbits call.

    Overriding getrandbits makes randrange draw through it too, so
    the same script can be fed to share_values and to randrange.
    """

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        assert k == RAND_BITS
        return self.words.pop(0)


def test_share_values_draws_like_randrange():
    # share_values(0, 1, 1, ...) is [a_1]: the draw itself.  The shares
    # of every golden scenario rest on this equality, so a Python whose
    # randrange drew differently must fail here and not only there.
    ours, ref = random.Random(2024), random.Random(2024)
    for _ in range(4000):
        assert share_values(0, 1, 1, ours) == [ref.randrange(PRIME)]
    assert ours.getstate() == ref.getstate()
    # the Horner path draws a_1..a_t in order, one randrange each
    for t in (2, 3):
        for _ in range(500):
            secret = ref.randrange(PRIME)
            ours.randrange(PRIME)
            vals = share_values(secret, 2 * t + 1, t, ours)
            coeffs = [ref.randrange(PRIME) for _ in range(t)]
            assert vals == [naive_poly([secret] + coeffs, x)
                            for x in range(1, 2 * t + 2)]
        assert ours.getstate() == ref.getstate()


def test_share_values_redraws_words_above_prime():
    # a 63-bit word is >= PRIME with probability 25/2**63, so replay some
    words = [PRIME, (1 << RAND_BITS) - 1, 5, PRIME + 3, 7, 11, PRIME, 13]
    for t in (1, 2):
        ref, ours = ScriptedBits(words), ScriptedBits(words)
        coeffs = [ref.randrange(PRIME) for _ in range(t)]
        assert coeffs == [5, 7][:t]
        assert share_values(9, 5, t, ours) == \
            [naive_poly([9] + coeffs, x) for x in range(1, 6)]
        assert ours.words == ref.words


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n,t", [(3, 1), (5, 2), (7, 3), (9, 4)])
def test_share_values_redraws_at_any_draw(n, t, where, force_rejects):
    # share_values' draws follow draw's rule: a word >= p at any of the t
    # draws is dropped and the next word taken, exactly as randrange does
    at = {"first": {0}, "middle": {t // 2}, "last": {t - 1}}[where]
    ours, ref = random.Random(n * t), random.Random(n * t)
    force_rejects(ours, at)
    force_rejects(ref, at)
    vals = share_values(17, n, t, ours)
    coeffs = [ref.randrange(PRIME) for _ in range(t)]
    assert vals == [naive_poly([17] + coeffs, x) for x in range(1, n + 1)]
    assert ours.getstate() == ref.getstate()


def test_params_validation():
    SharingParams(3, 1)
    SharingParams(5, 2)
    with pytest.raises(InvalidParams):
        SharingParams(2, 1)      # violates n >= 2t+1
    with pytest.raises(InvalidParams):
        SharingParams(3, 0)
    with pytest.raises(InvalidParams):
        SharingParams(300, 1)    # party index must fit one byte


def test_share_reconstruct_roundtrip(rng):
    for _ in range(100):
        n = rng.choice([3, 5, 7])
        t = rng.randint(1, (n - 1) // 2)
        secret = rng.randrange(field.PRIME)
        shares = share(secret, SharingParams(n, t), rng)
        assert len(shares) == n
        assert [s.party for s in shares] == list(range(1, n + 1))
        picked = rng.sample(shares, t + 1)
        assert reconstruct(picked) == secret
        assert reconstruct(shares) == secret


def test_shares_lie_on_declared_polynomial():
    # constant term is the secret; a twin rng gives the random part
    vals = share_values(42, 7, 2, random.Random(7))
    twin = random.Random(7)
    coeffs = [twin.randrange(PRIME) for _ in range(2)]
    for x, v in enumerate(vals, start=1):
        assert v == naive_poly([42, *coeffs], x)


def test_fit_reads_the_coefficients_back(rng):
    # any t+1 points in any order fix the polynomial; the rest are checked
    for n, t in ((3, 1), (5, 2), (7, 3), (2, 0)):
        coeffs = tuple(rng.randrange(PRIME) for _ in range(t + 1))
        xs = tuple(rng.sample(range(1, 20), n))
        ys = [naive_poly(coeffs, x) for x in xs]
        assert fit(ys, xs, t) == coeffs
        assert fit([y + PRIME for y in ys], xs, t) == coeffs
        for k in range(t + 1, n):
            bad = ys[:k] + [(ys[k] + 1) % PRIME] + ys[k + 1:]
            with pytest.raises(InconsistentShares,
                               match=f"share of party {xs[k]} is off"):
                fit(bad, xs, t)
        with pytest.raises(InsufficientShares,
                           match=f"degree {t} needs {t + 1} shares, got {t}"):
            fit(ys[:t], xs[:t], t)


def test_reconstruct_needs_threshold(rng):
    shares = share(123, SharingParams(5, 2), rng)
    with pytest.raises(InsufficientShares):
        reconstruct(shares[:2])


def test_reconstruct_detects_corruption(rng):
    shares = share(999, SharingParams(5, 2), rng)
    bad = Share(shares[0].party, (shares[0].value + 1) % field.PRIME,
                shares[0].degree)
    with pytest.raises(InconsistentShares):
        reconstruct([bad] + shares[1:])
    # with exactly t+1 shares the corruption is undetectable by design
    wrong = reconstruct([bad] + shares[1:3])
    assert wrong != 999


def test_reconstruct_rejects_mixed_sets(rng):
    a = share(1, SharingParams(3, 1), rng)
    with pytest.raises(PartyMismatch):
        reconstruct([a[0], a[0]])
    b = [Share(s.party, s.value, 2) for s in share(1, SharingParams(5, 2), rng)]
    with pytest.raises(DegreeMismatch):
        reconstruct([a[0], b[1]])


@pytest.mark.parametrize("degrees", [(-1,), (-1, -1), (True, True), (1, True),
                                     (1.0, 1.0), ("1", "1")])
def test_reconstruct_refuses_a_degree_that_is_not_an_int_at_least_0(degrees):
    # degree -1 interpolated from no points at all and returned 0, and
    # True passed for 1
    shares = [Share(x, 5 * x, d) for x, d in enumerate(degrees, start=1)]
    with pytest.raises(DegreeMismatch):
        reconstruct(shares)


def test_lagrange_weights_sum_property(rng):
    # the weights at zero (fit_rule's row 0) applied to a constant
    # polynomial give the constant
    for xs in ((1, 3, 4), (2, 7), (1, 2, 3, 4, 5)):
        _, rows, _ = fit_rule(xs, len(xs) - 1)
        assert sum(rows[0]) % field.PRIME == 1


def test_interpolate_matches_poly(rng):
    # fit through four points, then evaluate anywhere, 0 included
    coeffs = [rng.randrange(field.PRIME) for _ in range(4)]
    xs = (2, 5, 9, 11)
    fitted = fit([naive_poly(coeffs, x) for x in xs], xs, 3)
    assert evaluate(fitted, (0, 1, 7)) == \
        [naive_poly(coeffs, x) for x in (0, 1, 7)]


def test_t_privacy_constructive(rng):
    """Any t shares extend to a consistent sharing of any other secret."""
    for n, t in ((3, 1), (5, 2), (7, 3)):
        params = SharingParams(n, t)
        secret = rng.randrange(field.PRIME)
        shares = share(secret, params, rng)
        seen = rng.sample(shares, t)
        alt = rng.randrange(field.PRIME)
        full = extend_to_secret(seen, alt, params)
        # the extension agrees with the observed shares
        by_party = {s.party: s.value for s in full}
        for s in seen:
            assert by_party[s.party] == s.value
        assert reconstruct(full) == alt


def test_extend_rejects_too_many_fixed_points(rng):
    params = SharingParams(3, 1)
    shares = share(5, params, rng)
    with pytest.raises(InvalidParams):
        extend_to_secret(shares[:2], 6, params)


@pytest.mark.parametrize("known,error", [
    (Share(9, 5, 1), PartyMismatch),   # not one of the returned parties
    (Share(4, 5, 1), PartyMismatch),
    (Share(1, 5, 2), DegreeMismatch),  # not a share of a degree-1 sharing
    (Share(1, 5, 0), DegreeMismatch),
], ids=["party-9", "party-4", "degree-2", "degree-0"])
def test_extend_rejects_shares_it_cannot_keep(known, error):
    with pytest.raises(error):
        extend_to_secret([known], 7, SharingParams(3, 1))
