"""Factor-kernel laboratory: cosets the quasi-eigenfunctions cannot split.

Fix a designated irrational point x (a declared generator divided by
L!) and consider the subgroups of a dimension-m element group

    G1 = { phi : residue(phi_k) = 0 for k >= 1  and  phi_1(2x) = 0 },
    G  = { phi in G1 : phi_2(x) = 0 }.

Cosets of G are decided by equal residues and three exact conditions; the
pair correction

    alpha(phi, psi) = phi_1(phi_1(x) - psi_1(x))  in {0, 1/2}

twists the naive comparison of second components.  The centerpiece is a
constructive witness: an element phi* that is NOT in G (its second
component moves x by 1/2) yet evaluates identically to the identity
under q on every coset-constant index vector: two distinct cosets that
the quasi-eigenfunction data cannot separate.  Controls document that
the blindness is real: an index vector outside the coset-constant class
does separate the pair, and collapsing the witness's second component
collapses the cosets.

Kernel specifications describe the factor kernels used alongside: an
element is a member when its components below the spec dimension are
trivial and the top component kills every listed generator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

from .circle import Angle, ZERO, format_point
from .dynamics import q_eval
from .ellis import HmElement
from .endo import TruncationContext, TruncEndo
from .errors import ConfigurationError, MembershipError, RelationError

HALF_TURN = Angle._make(2, 1, ())  # 1/2 in normal form


@dataclass(frozen=True)
class FactorConfig:
    """Where the coset theory lives: context, designated symbol, dimension."""

    ctx: TruncationContext
    x_symbol: str
    m: int = 3

    def __post_init__(self) -> None:
        self.ctx.basis.index_of(self.x_symbol)
        if self.m < 2:
            raise ConfigurationError(
                f"coset comparisons read component 2, need m >= 2, got {self.m}"
            )
        if self.m > self.ctx.level:
            raise ConfigurationError(
                f"dimension m={self.m} exceeds truncation level {self.ctx.level}"
            )

    @property
    def point(self) -> Angle:
        """The designated irrational point x = x_sym / L!."""
        return self.ctx.generator(self.x_symbol)


def _check_dim(phi: HmElement, cfg: FactorConfig) -> None:
    if phi.m < 2:
        raise ConfigurationError("membership reads component 2, need m >= 2")
    if phi.ctx != cfg.ctx:
        raise ConfigurationError("element built for a different context")


def g1_member(phi: HmElement, cfg: FactorConfig) -> bool:
    """residue(phi_k) = 0 for 1 <= k <= m, and phi_1(2x) = 0."""
    _check_dim(phi, cfg)
    return not any(c.residue for c in phi.comps[1:]) and not phi.comps[1](2 * cfg.point)


def g_member(phi: HmElement, cfg: FactorConfig) -> bool:
    """G1 membership plus phi_2(x) = 0."""
    return g1_member(phi, cfg) and not phi.comps[2](cfg.point)


def pair_correction(phi: HmElement, psi: HmElement, cfg: FactorConfig) -> Angle:
    """alpha(phi, psi) = phi_1(phi_1(x) - psi_1(x)); needs (A) and (B)."""
    _check_dim(phi, cfg)
    _check_dim(psi, cfg)
    x2 = 2 * cfg.point
    if phi.comps[1](x2) != psi.comps[1](x2):  # (A)
        raise RelationError("pair correction undefined: values at 2x differ")
    if phi.comps[1].residue != psi.comps[1].residue:  # (B)
        raise RelationError("pair correction undefined: torsion residues differ")
    x = cfg.point
    return phi.comps[1](phi.comps[1](x) - psi.comps[1](x))


def coset_equal(phi: HmElement, psi: HmElement, cfg: FactorConfig) -> bool:
    """Same coset of G inside the ambient group: (A), (B), twisted (C), and
    equal residues in every slot.

    Exactly equivalent to inverse(phi) * psi in G, but decided from the
    components directly (a product's residues convolve its operands').
    """
    try:
        alpha = pair_correction(phi, psi, cfg)  # raises unless (A) and (B)
    except RelationError:
        return False
    if any(a.residue != b.residue for a, b in zip(phi.comps, psi.comps)):
        return False
    return phi.comps[2](cfg.point) == psi.comps[2](cfg.point) + alpha  # twisted (C)


def qef_coset_constant(v: Sequence[Angle], cfg: FactorConfig) -> bool:
    """Is the index vector constant on cosets of G?

    Characterization: coordinates 1 and 2 are even multiples of x plus
    torsion, and coordinates from 3 on are pure torsion.  Coordinate 0
    is unconstrained (component 0 is always the identity).
    """
    if len(v) > cfg.m + 1 and any(v[cfg.m + 1 :]):
        raise ConfigurationError(
            f"index vector reads past coordinate {cfg.m}"
        )
    M = cfg.ctx.modulus
    for k, a in enumerate(v):
        if k == 0:
            continue
        if k <= 2:
            for sym, _ in a.cs:
                if sym != cfg.x_symbol:
                    return False
            scaled = a.cs[0][1] * M if a.cs else 0  # over a.den
            if scaled % a.den or scaled // a.den % 2:
                return False
        else:
            if a.cs:
                return False
    return True


def qef_index_family(cfg: FactorConfig) -> list[tuple[Angle, ...]]:
    """Deterministic finite family of index vectors exercising both classes.

    Single-coordinate vectors over a spread of torsion points, x-multiples
    (even and odd), mixed entries, and other generators; plus two-coordinate
    combinations from a smaller set.  Order is fixed so downstream reports
    aggregate deterministically.
    """
    ctx = cfg.ctx
    M = ctx.modulus
    x = cfg.point
    t = ctx.torsion_generator()  # 1/M
    torsion = [t, 2 * t, HALF_TURN, -t]
    x_mult = [j * x for j in (-3, -2, -1, 1, 2, 3, 4)]
    mixed = [2 * x + t, x + t, (M // 2) * x]
    others = [
        ctx.generator(s) for s in ctx.basis.symbols if s != cfg.x_symbol
    ]
    entries = torsion + x_mult + mixed + others
    blank = (ZERO,) * (cfg.m + 1)
    family: list[tuple[Angle, ...]] = []
    for k in range(cfg.m + 1):
        for e in entries:
            v = list(blank)
            v[k] = e
            family.append(tuple(v))
    small = [torsion[0], 2 * x, x]
    for k1 in range(cfg.m + 1):
        for k2 in range(k1 + 1, cfg.m + 1):
            for e1 in small:
                for e2 in small:
                    v = list(blank)
                    v[k1] = e1
                    v[k2] = e2
                    family.append(tuple(v))
    return family


@dataclass(frozen=True)
class NonseparationReport:
    """Outcome of the witness construction, with controls."""

    witness_valid: bool
    cosets_distinct: bool
    family_size: int
    constant_vectors: int
    disagreements: tuple[str, ...]
    control_constant: bool
    control_separates: bool
    degenerate_equal: bool

    @property
    def passed(self) -> bool:
        return (
            self.witness_valid
            and self.cosets_distinct
            and not self.disagreements
            and not self.control_constant
            and self.control_separates
            and self.degenerate_equal
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def nonseparation_witness(
    cfg: FactorConfig,
) -> tuple[HmElement, NonseparationReport]:
    """Build phi* and check that q cannot tell its G-coset from the identity's.

    phi* has identity component 0, zero component 1, and a component 2
    sending the designated generator to 1/2 (all else to 0); components
    3..m are zero.  It is outside G, so its coset differs from the
    identity's, yet q_eval agrees with the identity on every
    coset-constant index vector in the family.  The separating control
    is an odd x-multiple in coordinate 2 (values 1/2 vs 0); the
    degenerate control replaces the half-turn image by one that kills x
    and watches the cosets collapse.
    """
    ctx = cfg.ctx
    zero = TruncEndo.power(ctx, 0)
    psi2 = TruncEndo.make(ctx, 0, {cfg.x_symbol: HALF_TURN})
    comps = [TruncEndo.power(ctx, 1), zero, psi2] + [zero] * (cfg.m - 2)
    try:
        witness = HmElement.validate(ctx, comps)
        valid = True
    except MembershipError:
        witness = HmElement(ctx, tuple(comps))
        valid = False
    ident = HmElement.identity(ctx, cfg.m)

    distinct = not coset_equal(ident, witness, cfg)

    family = qef_index_family(cfg)
    constant = 0
    disagreements: list[str] = []
    for v in family:
        if qef_coset_constant(v, cfg):
            constant += 1
            if q_eval(v, witness) != q_eval(v, ident):
                disagreements.append(format_point(v))

    blank = [ZERO] * (cfg.m + 1)
    control = list(blank)
    control[2] = cfg.point  # odd multiple: not coset-constant
    control_constant = qef_coset_constant(control, cfg)
    control_separates = q_eval(control, witness) != q_eval(control, ident)

    # degenerate twin: same shape, but component 2 kills x
    others = [s for s in ctx.basis.symbols if s != cfg.x_symbol]
    degen2 = TruncEndo.make(ctx, 0, {s: HALF_TURN for s in others[:1]})
    degen = HmElement.validate(
        ctx, [TruncEndo.power(ctx, 1), zero, degen2] + [zero] * (cfg.m - 2)
    )
    degenerate_equal = coset_equal(ident, degen, cfg)

    report = NonseparationReport(
        witness_valid=valid,
        cosets_distinct=distinct,
        family_size=len(family),
        constant_vectors=constant,
        disagreements=tuple(disagreements),
        control_constant=control_constant,
        control_separates=control_separates,
        degenerate_equal=degenerate_equal,
    )
    return witness, report


@dataclass(frozen=True)
class KernelSpec:
    """Factor kernel: trivial below dimension m, kills the listed angles."""

    m: int
    gamma: tuple[Angle, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigurationError(f"kernel dimension must be >= 1, got {self.m}")


def kernel_member(phi: HmElement, spec: KernelSpec) -> bool:
    """Components 1..m-1 trivial and the top component kills every gamma.

    Truncation errors from unrepresentable generators propagate.
    """
    if spec.m > phi.m:
        raise ConfigurationError(
            f"kernel spec reads component {spec.m}, element has m={phi.m}"
        )
    if phi.central_level() < spec.m - 1:
        return False
    top = phi.comps[spec.m]
    return all(not top(g) for g in spec.gamma)


def default_kernel_specs(cfg: FactorConfig) -> list[KernelSpec]:
    """The standard kernels that fit dimension cfg.m: torsion-killing,
    point-killing, both (at m = 1, 2, 3)."""
    t = cfg.ctx.torsion_generator()
    x = cfg.point
    specs = [KernelSpec(1, (t,)), KernelSpec(2, (x,)), KernelSpec(3, (x, t))]
    return [spec for spec in specs if spec.m <= cfg.m]
