from streamcert.prf import prf_bits, prf_u64, prf_uniform, sample_mask, sample_members


def test_prf_is_deterministic_and_seed_sensitive():
    assert prf_u64(1, 2, 3) == prf_u64(1, 2, 3)
    assert prf_u64(1, 2, 3) != prf_u64(2, 2, 3)
    assert prf_u64(1, 2, 3) != prf_u64(1, 3, 2)


def test_prf_uniform_range_and_spread():
    vals = [prf_uniform(0, i) for i in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.45 < sum(vals) / len(vals) < 0.55
    below = sum(1 for v in vals if v < 0.25)
    assert 400 < below < 600


def test_prf_bits_shape():
    bits = prf_bits(5, 40)
    assert len(bits) == 40 and set(bits) <= {0, 1}
    assert bits == prf_bits(5, 40)
    assert bits != prf_bits(6, 40) or prf_bits(5, 41)[:40] == bits


def test_sample_members_match_prf_uniform():
    for seed in (0, 1, 7, -3, 2**64 + 5):
        for r in (0, 1, 5, 40):
            for n in (0, 1, 13, 70):
                for rho in (0.05, 1 / 3, 0.5, 1.0):
                    want = [[v for v in range(n) if prf_uniform(seed, i, v) < rho] for i in range(r)]
                    assert sample_members(seed, r, n, rho) == want, (seed, r, n, rho)
            for rho in (0.05, 1 / 3, 0.5, 1.0):  # the arc route: bit i of mask(x) per sample i
                mask = sample_mask(seed, r, rho)
                for x in (0, 1, 5, 4899, 2**64 + 3, -7):
                    want = sum(1 << i for i in range(r) if prf_uniform(seed, i, x) < rho)
                    assert mask(x) == want, (seed, r, rho, x)
