"""Linearized Reed-Solomon codes: locators, generator matrix, encoding and
brute-force MSRD verification.

An LRS code evaluates skew polynomials of degree < k at the P-independent
locator set {a_l * beta_{l,t}^(q-1)} and scales column t of block l by
beta_{l,t}.  Entry (i, j) of the generator is N_i(a_l) * beta_{l,t}^(q^i).
"""

from dataclasses import dataclass, field as dc_field

from . import gf, metric, skew


@dataclass
class LrsSpec:
    field: object                 # F_{q^m}
    lengths: tuple                # block lengths n_1..n_ell, each <= m
    k: int
    representatives: list = None  # a_1..a_ell from distinct conjugacy classes
    multipliers: list = None      # per-block F_q-independent column multipliers
    ring: object = dc_field(init=False, repr=False)

    def __post_init__(self):
        fld = self.field
        check_shape(fld.q, fld.m, self.lengths, self.k)
        self.ring = skew.SkewRing(fld)
        ell = len(self.lengths)
        if self.representatives is None:
            self.representatives = [fld.power(fld.gamma, l)
                                    for l in range(ell)]
        if self.multipliers is None:
            self.multipliers = default_multipliers(fld, self.lengths)
        if len(self.representatives) != ell:
            raise ValueError("one representative per block")
        if [len(b) for b in self.multipliers] != list(self.lengths):
            raise ValueError("multiplier blocks must match the lengths")
        # with theta = sigma and delta = 0, a and b are conjugate iff
        # N(a) = N(b), so distinct classes are distinct norms
        norms = [fld.norm(a) for a in self.representatives]
        if 0 in norms or len(set(norms)) != ell:
            raise ValueError("representatives must be nonzero and pairwise "
                             "sigma-distinct")
        for l, block in enumerate(self.multipliers):
            if gf.rank_q(fld, block) != len(block):
                raise ValueError(f"multipliers of block {l + 1} are "
                                 "F_q-linearly dependent")

    @property
    def n(self):
        return sum(self.lengths)

    @property
    def partition(self):
        return metric.OrderedPartition(tuple(self.lengths))

    def flat_multipliers(self):
        return [b for block in self.multipliers for b in block]


def check_shape(q, m, lengths, k):
    """The conditions on an LRS shape that need no field: ell <= q - 1,
    1 <= n_l <= m and 1 <= k <= n."""
    if len(lengths) > q - 1:
        raise ValueError(f"need ell <= q - 1 nonzero conjugacy classes: "
                         f"ell = {len(lengths)}, q = {q}")
    for nl in lengths:
        if not 1 <= nl <= m:
            raise ValueError(f"block lengths must satisfy 1 <= n_l <= m: "
                             f"n_l = {nl}, m = {m}")
    if not 1 <= k <= sum(lengths):
        raise ValueError(f"need 1 <= k <= n: k = {k}, n = {sum(lengths)}")


def default_multipliers(fld, lengths):
    """Block l gets consecutive powers gamma^(l-1), ..., gamma^(l-1+n_l-1)."""
    return [[fld.power(fld.gamma, l + t) for t in range(nl)]
            for l, nl in enumerate(lengths)]


def default_spec(field, lengths, k):
    return LrsSpec(field, tuple(lengths), k)


def code_locators(spec):
    """The n locators a_l beta_{l,t}^(q-1), block by block.

    They are P-independent by the criterion of Lam and Leroy (J. Algebra
    119, 1988; see Martinez-Penas, J. Algebra 504, 2018) that LrsSpec
    enforces: the a_l lie in pairwise distinct nonzero conjugacy classes
    (they have distinct nonzero norms), and the beta_{l,t} of each block are
    F_q-linearly independent (rank_q(block) == len(block)).
    """
    fld = spec.field
    e = fld.q - 1
    return [fld.mul(a, fld.power(b, e))
            for a, block in zip(spec.representatives, spec.multipliers)
            for b in block]


def generator_matrix(spec):
    """k x n generator; entry (i, t of block l) is N_i(a_l) beta_{l,t}^(q^i).

    Each block reads its column norms from one norm sequence, and row i + 1
    takes the multipliers of row i one Frobenius step further.
    """
    fld, ring = spec.field, spec.ring
    norms = []
    for a, block in zip(spec.representatives, spec.multipliers):
        norms += [ring.norm_sequence(spec.k, a)] * len(block)
    betas = spec.flat_multipliers()
    rows = []
    for i in range(spec.k):
        if i:
            betas = [ring.theta(b) for b in betas]
        rows.append([fld.mul(col[i], b) for col, b in zip(norms, betas)])
    return rows


def encode(spec, message):
    """message * G; equals multiplier-scaled remainder evaluations."""
    if len(message) != spec.k:
        raise ValueError("message length must equal k")
    return gf.mat_mul(spec.field, [message], generator_matrix(spec))[0]


def is_msrd(spec):
    """Brute-force check that d_SR = n - k + 1 (guard q^(mk) <= 2^24)."""
    gen = generator_matrix(spec)
    d = metric.min_distance_bruteforce(spec.field, gen, metric.SUMRANK,
                                       spec.partition)
    return d == spec.n - spec.k + 1
