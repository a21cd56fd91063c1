import dataclasses
import hashlib
from fractions import Fraction

import pytest

from quatmatch import verifycli, weilmatch
from quatmatch.quatalg import RamifiedModel, ramified_model
from quatmatch.weilmatch import (
    char_dual,
    char_lattice,
    lambda_eval,
    lambda_table_text,
    match_coefficients,
    matching_weights,
    ramified_space,
    split_level_space,
    split_maximal_space,
    verify_prop_3_1,
)

from cyclotomic import zeta
from weil_reference import (
    SchwartzCombo,
    act,
    coset_char,
    lambda_eval_bruteforce,
    level_form,
    ramified_form,
    reference_lambda,
    table_lambda,
    verify_basis_lemma,
    verify_k_invariance,
    weil_act,
)


def test_space_volumes_and_indices():
    for p in (2, 3, 5):
        sp0 = split_maximal_space(p)
        sp1 = split_level_space(p)
        ra = ramified_space(p)
        assert sp0.labels() == [(0, 0)] and sp0.vol == 1
        assert len(sp1.labels()) == p * p and sp1.vol == Fraction(1, p)
        assert len(ra.labels()) == p * p and ra.vol == Fraction(1, p)
        for space in (sp0, sp1, ra):
            # vol(L) = [L_dual : L]^(-1/2)
            assert space.vol ** 2 * len(space.labels()) == 1
        assert sp0.gamma == -ra.gamma == 1


def test_coset_norms():
    # the stored table is p*Q(mu) mod p of the 4-D reference form, and its
    # polarisation is the 4-D bilinear form mod 1, on every label
    for p in (2, 3, 5, 7, 11, 13):
        for space, form in ((split_level_space(p), level_form(p)),
                            (ramified_space(p), ramified_form(p))):
            labels = space.labels()
            assert labels == [(i, j) for i in range(p) for j in range(p)]
            table = space.table
            for i, j in labels:
                pq = p * form.q(form.coset_vector((i, j)))
                assert pq.denominator == 1 and table[i][j] == pq % p
            # p*B on the generators v_i, v_j; the 4-D form is bilinear
            gens = (form.v_i, form.v_j)
            g = [[p * form.bilin(x, y) for y in gens] for x in gens]
            assert all(e.denominator == 1 for row in g for e in row)
            (g00, g01), (g10, g11) = [[int(e) for e in row] for row in g]
            for a, b in labels:
                for i, j in labels:
                    pb = table[(a + i) % p][(b + j) % p] - table[a][b] - table[i][j]
                    ref = a * i * g00 + a * j * g01 + b * i * g10 + b * j * g11
                    assert (pb - ref) % p == 0


def test_standard_lambda_values():
    for p in (2, 3, 5, 7):
        ra = ramified_space(p)
        sp0 = split_maximal_space(p)
        sp1 = split_level_space(p)
        assert lambda_eval(char_lattice(ra), None) == 1
        assert lambda_eval(char_lattice(ra), 0) == Fraction(-1, p)
        assert lambda_eval(char_dual(ra), None) == 1
        assert lambda_eval(char_dual(ra), 0) == -p
        assert lambda_eval(char_lattice(sp0), 0) == 1
        assert lambda_eval(char_lattice(sp1), 0) == Fraction(1, p)
        assert lambda_eval(char_dual(sp1), 0) == p


def test_lambda_eval_is_rational_on_1_and_w_only():
    for p in (2, 3, 5):
        for phi in (char_lattice(ramified_space(p)), char_dual(split_level_space(p)),
                    coset_char(split_level_space(p), 1, 1)):
            for b in (None, 0):
                assert type(lambda_eval(phi, b)) is Fraction
            for b in (1, -1, p):
                with pytest.raises(ValueError, match="on {1, w} only"):
                    lambda_eval(phi, b)


def test_coset_lambda_values():
    # the one-term values read off the tables are the closed forms the DFT
    # and A x = t certificates check, and the reference action gives them
    for p in (2, 3, 5):
        sp1 = split_level_space(p)
        ra = ramified_space(p)
        model = ramified_model(p)
        for a in range(p):
            for b in range(p):
                if (a, b) == (0, 0):
                    continue
                phi = coset_char(sp1, a, b)
                assert lambda_eval(phi, None) == 0
                for i in range(p):
                    want = zeta(p, a * b * i % p) * Fraction(1, p)
                    assert table_lambda(phi, i) == want
                    assert reference_lambda(phi, (("w",), ("n", i))) == want
                phi_ra = coset_char(ra, a, b)
                d = model.d_value(a, b)
                for i in range(p):
                    want = zeta(p, i * d % p) * Fraction(-1, p)
                    assert table_lambda(phi_ra, i) == want
                    assert reference_lambda(phi_ra, (("w",), ("n", i))) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lambda_eval_matches_reference_action(p):
    # the full group action read at 0 is lambda_eval on {1, w} and the table's
    # one-term sum at every w n(i), on the five Prop. 3.1 sections and on
    # every coset section
    ra = ramified_space(p)
    sp1 = split_level_space(p)
    sections = [char_lattice(ra), char_dual(ra), char_lattice(split_maximal_space(p)),
                char_lattice(sp1), char_dual(sp1)]
    sections += [coset_char(space, a, b) for space in (sp1, ra)
                 for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    for phi in sections:
        assert reference_lambda(phi, ()) == lambda_eval(phi, None)
        assert reference_lambda(phi, (("w",),)) == lambda_eval(phi, 0)
        for i in range(p):
            assert reference_lambda(phi, (("w",), ("n", i))) == table_lambda(phi, i)


def test_coset_char_reduces_before_checking():
    for space in (split_maximal_space(3), split_level_space(3)):
        assert coset_char(space, 3, 0) == coset_char(space, 0, -3) == char_lattice(space)
    assert coset_char(split_level_space(3), 4, -1) == coset_char(split_level_space(3), 1, 2)
    with pytest.raises(ValueError, match="only the zero coset"):
        coset_char(split_maximal_space(3), 1, 0)


def test_lambda_bruteforce_cross_check():
    for p in (2, 3):
        for space, form in ((split_level_space(p), level_form(p)),
                            (ramified_space(p), ramified_form(p))):
            sections = [char_lattice(space), char_dual(space),
                        coset_char(space, 1, 0), coset_char(space, 1, 1)]
            for phi in sections:
                assert lambda_eval_bruteforce(phi, form, 0) == lambda_eval(phi, 0)
                for i in range(p):
                    assert lambda_eval_bruteforce(phi, form, i) == table_lambda(phi, i)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prop_3_1(p):
    assert verify_prop_3_1(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_matching_weights(p):
    assert matching_weights(p) == (Fraction(-2, p - 1), Fraction(p + 1, p - 1))


@pytest.fixture
def fresh_weights():
    """`matching_weights` is cached: a test that patches a local space solves
    the weights afresh and leaves none of its patched weights behind."""
    matching_weights.cache_clear()
    yield
    matching_weights.cache_clear()


def test_matching_weights_singular_system(monkeypatch, fresh_weights):
    # with L1 replaced by L0 the two split columns agree on {1, w}
    monkeypatch.setattr(weilmatch, "split_level_space", split_maximal_space)
    with pytest.raises(ArithmeticError, match="p = 5"):
        matching_weights(5)


def _flip_gamma(monkeypatch, name):
    build = getattr(weilmatch, name)
    monkeypatch.setattr(weilmatch, name, lambda p: dataclasses.replace(
        build(p), gamma=-build(p).gamma))


def test_prop_3_1_gamma_sensitivity(monkeypatch, fresh_weights):
    # flipping the Weil index of either side must break the matching
    with monkeypatch.context() as mp:
        _flip_gamma(mp, "ramified_space")
        assert not verify_prop_3_1(3)
        # verify reads its weights from the same local matching
        assert matching_weights(3) == (0, 1)
        case = verifycli.TheoremCase("1.4", D=2, p=3, N=1, m_max=5)
        assert not verifycli.run_case(case, verifycli.ClassSetPool()).all_pass
    matching_weights.cache_clear()
    with monkeypatch.context() as mp:
        _flip_gamma(mp, "split_level_space")
        assert not verify_prop_3_1(5)


def test_fourier_inversion():
    for p in (2, 3, 5):
        for space in (split_maximal_space(p), split_level_space(p),
                      ramified_space(p)):
            phi = SchwartzCombo.of(char_lattice(space))
            assert weil_act(("w",), weil_act(("w",), phi)) == phi


def test_n_action_trivial_on_integral_lattice():
    for p in (2, 3):
        space = split_level_space(p)
        phi = SchwartzCombo.of(char_lattice(space))
        for b in range(1, p + 1):
            assert weil_act(("n", b), phi) == phi


def test_k_invariance():
    for p in (2, 3):
        ra = ramified_space(p)
        sp0 = split_maximal_space(p)
        sp1 = split_level_space(p)
        for phi in (char_lattice(ra), char_lattice(sp0), char_lattice(sp1)):
            assert verify_k_invariance(phi, "K0")
        for phi in (char_dual(ra), char_dual(sp1)):
            assert verify_k_invariance(phi, "K0plus")
            assert not verify_k_invariance(phi, "K0")
        for a in range(p):
            for b in range(p):
                if (a, b) == (0, 0):
                    continue
                assert verify_k_invariance(coset_char(ra, a, b), "K")
                assert verify_k_invariance(coset_char(sp1, a, b), "K")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_basis_lemma(p):
    assert verify_basis_lemma(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_match_coefficients(p):
    model = ramified_model(p)
    sp1 = split_level_space(p)
    ra = ramified_space(p)
    for k in range(p):
        for l in range(p):
            if (k, l) == (0, 0):
                continue
            coeffs = match_coefficients(p, k, l)
            d = model.d_value(k, l) % p
            assert coeffs[d] == -1
            assert sum(1 for c in coeffs if c) == 1
            # the matching identity holds under the reference action on the
            # whole transversal {1, w n(i)}, g = 1 included
            phi_ra = coset_char(ra, k, l)
            for g in [()] + [(("w",), ("n", i)) for i in range(p)]:
                rhs = sum(reference_lambda(coset_char(sp1, 1, j), g) * cj
                          for j, cj in enumerate(coeffs) if cj)
                assert reference_lambda(phi_ra, g) == rhs


class _ShiftedResidue(RamifiedModel):
    """A division-order model whose norm-form residue d is off by one."""

    def d_value(self, k, l):
        return super().d_value(k, l) + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_match_coefficients_rejects_wrong_residue(p, monkeypatch):
    # the closed form -e_d is only accepted because A x = t holds exactly.
    # The space is built from the true model before the patch, and handed
    # back as is: `ramified_space` is cached, and one built from the shifted
    # model would shift its table with d, and stay cached for later tests
    model, space = ramified_model(p), ramified_space(p)
    monkeypatch.setattr(weilmatch, "ramified_space", lambda q: space)
    monkeypatch.setattr(weilmatch, "ramified_model",
                        lambda q: _ShiftedResidue(model.p, model.t, model.n))
    for k in range(p):
        for l in range(p):
            if (k, l) != (0, 0):
                with pytest.raises(ArithmeticError, match="fails A x = t"):
                    match_coefficients(p, k, l)


@pytest.fixture
def fresh_dft():
    """`_dft_matrix` is cached: a test that patches the split level space
    checks the block afresh and leaves no patched block behind."""
    weilmatch._dft_matrix.cache_clear()
    yield
    weilmatch._dft_matrix.cache_clear()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_dft_block_is_rejected(p, monkeypatch, fresh_dft):
    # with the Weil index of the split level space flipped, the lambda block
    # is -A: the scalar p*gamma*vol that the exponent check reads is -1
    _flip_gamma(monkeypatch, "split_level_space")
    assert not verify_basis_lemma(p)
    with pytest.raises(ArithmeticError, match="not the DFT matrix"):
        match_coefficients(p, 1, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flipped_ramified_gamma_fails_a_x_t(p, monkeypatch):
    # the right side t is scaled by -p*gamma*vol of the ramified space
    _flip_gamma(monkeypatch, "ramified_space")
    for k in range(p):
        for l in range(p):
            if (k, l) != (0, 0):
                with pytest.raises(ArithmeticError, match="fails A x = t"):
                    match_coefficients(p, k, l)


def _shift_entry(monkeypatch, name, i, j):
    """Patch the space `name` so that its table entry (i, j) is one more."""
    build = getattr(weilmatch, name)

    def shifted(p):
        space = build(p)
        table = [list(row) for row in space.table]
        table[i][j] = (table[i][j] + 1) % p
        return dataclasses.replace(space, table=tuple(map(tuple, table)))
    monkeypatch.setattr(weilmatch, name, shifted)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_changed_table_entry_is_rejected(p, monkeypatch, fresh_dft):
    # one entry pQ(mu) of either table, one more mod p: the DFT check reads
    # row 1 of the split level table, and A x = t for the coset (k, l) reads
    # entry (k, l) of the ramified table, and no other
    for j in range(p):
        with monkeypatch.context() as mp:
            _shift_entry(mp, "split_level_space", 1, j)
            weilmatch._dft_matrix.cache_clear()
            assert not verify_basis_lemma(p)
            with pytest.raises(ArithmeticError, match="not the DFT matrix"):
                match_coefficients(p, 1, 0)
    weilmatch._dft_matrix.cache_clear()
    labels = [(k, l) for k in range(p) for l in range(p) if (k, l) != (0, 0)]
    for k, l in labels:
        with monkeypatch.context() as mp:
            _shift_entry(mp, "ramified_space", k, l)
            for label in labels:
                if label == (k, l):
                    with pytest.raises(ArithmeticError, match="fails A x = t"):
                        match_coefficients(p, *label)
                else:
                    match_coefficients(p, *label)


@pytest.mark.parametrize("p", [3, 5])
def test_basis_lemma_rejects_a_changed_entry_off_row_1(p, monkeypatch, fresh_dft):
    # the DFT check reads row 1 of the split level table only; an entry of
    # row 2 that no longer depends on ab mod p alone fails the basis lemma
    _shift_entry(monkeypatch, "split_level_space", 2, 1)
    assert not verify_basis_lemma(p)


def test_match_coefficients_rejects_zero_coset():
    with pytest.raises(ValueError):
        match_coefficients(3, 0, 0)


def test_m_action_requires_unit():
    space = split_level_space(3)
    with pytest.raises(ValueError):
        act(("m", 3), SchwartzCombo.of(char_lattice(space)))


def test_weil_act_takes_n_and_w_only():
    phi = SchwartzCombo.of(char_lattice(split_level_space(3)))
    for word in (("m", 1), ("nminus", 1), ("nminus", 3)):
        with pytest.raises(ValueError, match="unknown generator word"):
            weil_act(word, phi)


def test_lambda_table_text_smoke():
    text = lambda_table_text(3)
    assert "prop-3.1 matchings hold: True" in text
    assert "coset (1,1)" in text


# SHA-256 of `quatmatch local --p P` stdout: headers, lambda-values, the
# Prop. 3.1 verdict and every coset matching, byte for byte
LOCAL_DIGESTS = {
    2: "5670bca035ec527e6bc57168df380179976da46e372d10f6c8deb610385b1950",
    3: "a3c1f3088ba04b02c5716a6288979f69b876187c5533ef70c4248b613d20f54b",
    5: "452897a3cf76a02bb95ac9e1bc24e5ba4f9ce70c9d0e55757442a3beefaeca3d",
    7: "efc3751d4e9a215182396e4d457c6582a82fa9edb59e6df2018544579e56180e",
    11: "fbbd28423f10aa12bf455c08521095c37f012a08bb52bfdd88b90e19662587bc",
    13: "0506c4368d21a03fb34ba758f1c916f0a635a8b64dbab79c9ba7f4824fe170da",
    17: "87520690f88b8627159a1597561925f53b2081a4eb07c0e4e46890c39b96a121",
    19: "0e5b2f0f0a7afe4819176b202a7458aa4964bef00822790cd154081b997ff076",
    23: "93600cebd64f512995100fbbdc410ed79af1aa29bebf68e8e16e160b2105c9f9",
    29: "598670d428186fa7a3190140507b2eea60ff953dba3250b9bb9d6c4af473c134",
    53: "939230bac97d733a636816fea5363e2ad3a8792cbceebda45484d7fffa3690e5",
    79: "aa518534aa2fbc9f26bb7abf91142dbf804525d45c59625034556a2881471588",
    101: "6583b534a9deb8d35527c414ea672b19501a16a42db346d0d047b17963722335",
}


@pytest.mark.parametrize("p", sorted(LOCAL_DIGESTS))
def test_local_output_pinned(p, capsys):
    assert verifycli.main(["local", "--p", str(p)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LOCAL_DIGESTS[p]
