"""Coset laboratory: subgroup tests, the blind witness, kernel specs.

Elements here are dimension 3 at level 6 with designated symbol b1, so
the designated point is the b1 generator over 720; only the torsion
residue tests also run at levels 3 to 5 and 400 and at m = 2.  Frozen
counts in the witness report were derived by classifying the
deterministic index family by hand: 15 single entries over 4 coordinates
plus 9 two-entry choices over 6 coordinate pairs gives 114 vectors, of
which 60 are constant on cosets.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from skewtorus.circle import Angle, BasisDecl, ZERO
from skewtorus.dynamics import q_eval
from skewtorus.ellis import HmElement
from skewtorus.endo import TruncEndo, TruncationContext
from skewtorus.errors import ConfigurationError, RelationError, TruncationError
from skewtorus.factor_lab import (
    FactorConfig,
    KernelSpec,
    coset_equal,
    default_kernel_specs,
    g1_member,
    g_member,
    kernel_member,
    nonseparation_witness,
    pair_correction,
    qef_coset_constant,
    qef_index_family,
)
from skewtorus.samplers import rand_element

F = Fraction

BASIS = BasisDecl.from_decimals(
    {
        "b1": "0.4142135623730950488016887242096980785697",
        "b2": "0.7320508075688772935274463415058723669428",
    }
)
CTX = TruncationContext(6, BASIS)
CFG = FactorConfig(CTX, "b1", 3)
X = CFG.point
HALF = Angle(F(1, 2))
IDENT = TruncEndo.power(CTX, 1)


def zmap():
    return TruncEndo.power(CTX, 0)


def elem(phi1=None, phi2=None, phi3=None):
    comps = [IDENT, phi1 or zmap(), phi2 or zmap(), phi3 or zmap()]
    return HmElement.validate(CTX, comps)


def test_config_guards():
    assert X == CTX.generator("b1")
    with pytest.raises(ConfigurationError):
        FactorConfig(CTX, "b1", 1)
    with pytest.raises(ConfigurationError):
        FactorConfig(CTX, "b1", 7)
    with pytest.raises(ConfigurationError):
        FactorConfig(CTX, "zz", 3)


def test_subgroup_membership_frozen():
    assert g_member(HmElement.identity(CTX, 3), CFG)

    half_img = TruncEndo.make(CTX, 0, {"b1": HALF})
    assert g1_member(elem(phi1=half_img), CFG)  # 2 * 1/2 = 0
    assert not g1_member(
        elem(phi1=TruncEndo.make(CTX, 0, {"b1": Angle(F(1, 4))})), CFG
    )
    assert not g1_member(HmElement.tilde(CTX, 1, 3), CFG)  # residue 1

    inside = elem(phi2=TruncEndo.make(CTX, 0, {"b2": HALF}))
    assert g_member(inside, CFG)  # second component kills x
    outside = elem(phi2=half_img)
    assert g1_member(outside, CFG) and not g_member(outside, CFG)

    with pytest.raises(ConfigurationError):
        g1_member(HmElement.tilde(CTX, 0, 1), CFG)  # too short
    other = FactorConfig(TruncationContext(5, BASIS), "b1", 3)
    with pytest.raises(ConfigurationError):
        g1_member(HmElement.identity(CTX, 3), other)


def test_pair_correction_frozen():
    phi = HmElement.tilde(CTX, 1, 3)
    shifted = TruncEndo.make(CTX, 1, {"b1": X + HALF})
    psi = elem(phi1=shifted)
    assert pair_correction(phi, psi, CFG) == HALF
    assert pair_correction(phi, phi, CFG) == ZERO
    assert pair_correction(psi, phi, CFG) == HALF

    # residue mismatch breaks precondition (B)
    same_image = elem(phi1=TruncEndo.make(CTX, 0, {"b1": X}))
    with pytest.raises(RelationError):
        pair_correction(phi, same_image, CFG)
    # value mismatch at 2x breaks precondition (A)
    quarter = elem(phi1=TruncEndo.make(CTX, 0, {"b1": Angle(F(1, 4))}))
    with pytest.raises(RelationError):
        pair_correction(HmElement.identity(CTX, 3), quarter, CFG)


def test_coset_comparison_frozen_pair():
    # translation-by-one versus its half-twisted companion: the naive
    # second components differ by 1/2, exactly cancelled by alpha
    phi = HmElement.tilde(CTX, 1, 3)
    psi = HmElement.validate(
        CTX,
        (
            IDENT,
            TruncEndo.make(CTX, 1, {"b1": X + HALF}),
            TruncEndo.make(CTX, 0, {"b1": HALF}),
            zmap(),
        ),
    )
    assert coset_equal(phi, psi, CFG)
    assert g_member(phi.inverse() * psi, CFG)

    untwisted = HmElement.validate(
        CTX,
        (IDENT, TruncEndo.make(CTX, 1, {"b1": X + HALF}), zmap(), zmap()),
    )
    assert not coset_equal(phi, untwisted, CFG)
    assert not g_member(phi.inverse() * untwisted, CFG)


def test_coset_comparison_matches_subgroup_shift():
    half_img = TruncEndo.make(CTX, 0, {"b1": HALF})
    pool = [
        HmElement.identity(CTX, 3),
        HmElement.tilde(CTX, 1, 3),
        HmElement.tilde(CTX, -2, 3),
        elem(phi2=half_img),
        elem(phi1=half_img),
        elem(phi1=half_img, phi2=TruncEndo.make(CTX, 0, {"b1": X})),
        elem(phi3=TruncEndo.make(CTX, 0, {"b2": X})),
    ]
    for a in pool:
        for b in pool:
            assert coset_equal(a, b, CFG) == g_member(a.inverse() * b, CFG)


def test_index_vector_classification():
    ok = [
        (X, ZERO, ZERO, ZERO),  # coordinate 0 is unconstrained
        (ZERO, 2 * X, ZERO, ZERO),
        (ZERO, ZERO, 4 * X + HALF, ZERO),
        (ZERO, Angle(F(1, 720)), ZERO, HALF),
    ]
    bad = [
        (ZERO, X, ZERO, ZERO),  # odd multiple
        (ZERO, ZERO, 3 * X, ZERO),
        (ZERO, Angle(0, {"b1": F(1, 1440)}), ZERO, ZERO),  # half a generator
        (ZERO, CTX.generator("b2"), ZERO, ZERO),  # wrong symbol
        (ZERO, ZERO, ZERO, 2 * X),  # top coordinate must be pure torsion
    ]
    for v in ok:
        assert qef_coset_constant(v, CFG)
    for v in bad:
        assert not qef_coset_constant(v, CFG)

    with pytest.raises(ConfigurationError):
        qef_coset_constant((ZERO, ZERO, ZERO, ZERO, HALF), CFG)
    assert qef_coset_constant((ZERO, ZERO, ZERO, ZERO, ZERO), CFG)


def test_witness_report_frozen():
    witness, report = nonseparation_witness(CFG)
    assert report.passed
    assert report.witness_valid
    assert report.cosets_distinct
    assert report.family_size == 114
    assert report.constant_vectors == 60
    assert report.disagreements == ()
    assert not report.control_constant
    assert report.control_separates
    assert report.degenerate_equal

    assert witness.comps[2](X) == HALF
    assert g1_member(witness, CFG)
    assert not g_member(witness, CFG)

    d = report.to_dict()
    assert d["pass"] is True
    assert d["family_size"] == 114

    # the separating control, replayed by hand
    control = (ZERO, ZERO, X, ZERO)
    ident = HmElement.identity(CTX, 3)
    assert q_eval(control, witness) == HALF
    assert q_eval(control, ident) == ZERO


def test_family_is_deterministic():
    fam1 = qef_index_family(CFG)
    fam2 = qef_index_family(CFG)
    assert fam1 == fam2
    assert len(fam1) == 114
    assert len({tuple(map(str, v)) for v in fam1}) == len(fam1)


def test_torsion_shadow_in_component_two():
    # A component 2 that is pure torsion of exact order two passes the
    # coherence congruence (2 * 360 = 0 mod 720) and kills x, yet it is
    # outside G, which asks for residue 0 in every slot, and outside the
    # identity's coset; a coset-constant vector tells the two apart.
    ghost = HmElement.validate(
        CTX, (IDENT, zmap(), TruncEndo.make(CTX, 360, {}), zmap())
    )
    ident = HmElement.identity(CTX, 3)
    assert not g1_member(ghost, CFG)
    assert not g_member(ghost, CFG)
    assert not coset_equal(ident, ghost, CFG)

    v = (ZERO, ZERO, Angle(F(1, 720)), ZERO)
    assert qef_coset_constant(v, CFG)
    assert q_eval(v, ghost) == HALF
    assert q_eval(v, ident) == ZERO


@pytest.mark.parametrize("level, m, slot, order", [(6, 2, 2, 2), (400, 2, 2, 2), (6, 3, 3, 6)])
def test_torsion_residues_above_slot_one_leave_g(level, m, slot, order):
    """Residue M/order in one slot k >= 2, with zero rows, passes the
    coherence congruence (k! * M/order = 0 mod M) and kills x.  q reads
    that residue at a coset-constant torsion coordinate, so the element
    must lie outside G and outside the identity's coset."""
    ctx = TruncationContext(level, BASIS)
    cfg = FactorConfig(ctx, "b1", m)
    M = ctx.modulus
    comps = [TruncEndo.power(ctx, 1)] + [TruncEndo.power(ctx, 0)] * m
    comps[slot] = TruncEndo.make(ctx, M // order, {})
    phi = HmElement.validate(ctx, comps)
    ident = HmElement.identity(ctx, m)
    assert not g_member(phi, cfg)
    assert not coset_equal(ident, phi, cfg)
    v = [ZERO] * (m + 1)
    v[slot] = ctx.torsion_generator()
    assert qef_coset_constant(v, cfg)
    assert q_eval(v, phi) == Angle(F(1, order))
    assert q_eval(v, ident) == ZERO


def residue_tuples(M, m):
    """Every residue tuple (r_1, ..., r_m) of R_L(m), M = L!: r_1 is free,
    and the coherence congruence k! r_k = k! C(r_1, k) mod M leaves the k!
    lifts of C(r_1, k) mod M/k! for slot k."""
    for r1 in range(M):
        lifts = []
        for k in range(2, m + 1):
            step = M // math.factorial(k)
            lifts.append(range(math.comb(r1, k) % step, M, step))
        for rest in itertools.product(*lifts):
            yield (r1, *rest)


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_q_is_constant_on_the_torsion_cosets_of_g(level, m):
    """Every zero-row element of R_L(m) against the identity, under every
    torsion index vector with one nonzero coordinate: the class calls each
    such vector constant, so q must agree on every element that
    coset_equal puts in the identity's coset.  Only the identity is there."""
    ctx = TruncationContext(level, BASIS)
    cfg = FactorConfig(ctx, "b1", m)
    M = ctx.modulus
    zero, ident = TruncEndo.power(ctx, 0), HmElement.identity(ctx, m)
    vectors = []
    for k in range(m + 1):
        for j in range(1, M):
            v = [ZERO] * (m + 1)
            v[k] = Angle(F(j, M))
            vectors.append(v)
    assert all(qef_coset_constant(v, cfg) for v in vectors)
    tuples = list(residue_tuples(M, m))
    assert len(set(tuples)) == M * math.prod(math.factorial(k) for k in range(2, m + 1))
    same = []
    for rs in tuples:
        comps = [TruncEndo.power(ctx, 1)] + [TruncEndo.make(ctx, r, {}) for r in rs]
        phi = HmElement.validate(ctx, comps)  # raises unless rs lies in R_L(m)
        assert coset_equal(ident, phi, cfg) == g_member(phi, cfg)
        if coset_equal(ident, phi, cfg):
            same.append(rs)
            assert all(q_eval(v, phi) == q_eval(v, ident) for v in vectors), rs
    assert same == [(0,) * m]


def test_kernel_specs_frozen():
    specs = default_kernel_specs(CFG)
    assert [(s.m, s.gamma) for s in specs] == [
        (1, (Angle(F(1, 720)),)),
        (2, (X,)),
        (3, (X, Angle(F(1, 720)))),
    ]
    with pytest.raises(ConfigurationError):
        KernelSpec(0)


def test_kernel_membership():
    specs = default_kernel_specs(CFG)
    ident = HmElement.identity(CTX, 3)
    assert all(kernel_member(ident, s) for s in specs)

    # multiplication by the modulus kills torsion but moves generators
    full = HmElement.tilde(CTX, 720, 3)
    assert kernel_member(full, specs[0])
    assert not kernel_member(full, specs[1])

    kills_x = elem(phi2=TruncEndo.make(CTX, 0, {"b2": HALF}))
    assert kernel_member(kills_x, specs[1])
    assert not kernel_member(kills_x, specs[2])  # component 2 not trivial

    moves_x = elem(phi2=TruncEndo.make(CTX, 0, {"b1": HALF}))
    assert not kernel_member(moves_x, specs[1])

    with pytest.raises(ConfigurationError):
        kernel_member(HmElement.identity(CTX, 2), specs[2])
    with pytest.raises(TruncationError):
        kernel_member(ident, KernelSpec(1, (Angle(F(1, 5040)),)))


def test_kernel_conjugation_spot_checks():
    specs = default_kernel_specs(CFG)
    h = HmElement.tilde(CTX, 5, 3)
    member = elem(phi2=TruncEndo.make(CTX, 0, {"b2": HALF}))
    conj = h.inverse() * member * h
    assert kernel_member(conj, specs[1])

    outsider = elem(phi2=TruncEndo.make(CTX, 0, {"b1": HALF}))
    assert not kernel_member(h.inverse() * outsider * h, specs[1])


@pytest.mark.parametrize("level, m", [(6, 5), (8, 4), (12, 6)])
def test_conjugation_fixes_the_slots_a_kernel_reads(level, m):
    # N_s, the elements trivial in slots 1..s-1, has [G, N_s] in N_{s+1}, so
    # both conjugates of k in N_s keep slots 1..s of k: every KernelSpec of
    # dimension s is normal.  Truncation to s is a homomorphism, so the
    # conjugate can be taken in dimension s alone.
    ctx = TruncationContext(level, BASIS)
    rng = random.Random(f"conjugation:{level}:{m}")
    for s in range(1, m + 1):
        for _ in range(40):
            k = rand_element(rng, ctx, m, trivial_prefix=s - 1)
            h = rand_element(rng, ctx, m)
            hs, ks = h.truncate(s), k.truncate(s)
            pairs = [
                (h.inverse() * k * h, hs.inverse() * ks * hs),
                (h * k * h.inverse(), hs * ks * hs.inverse()),
            ]
            for conj, small in pairs:
                assert conj.comps[: s + 1] == k.comps[: s + 1], (level, m, s)
                assert conj.truncate(s) == small, (level, m, s)
