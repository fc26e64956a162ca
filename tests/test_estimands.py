import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerenc.errors import (
    EmptyStratumInBlock,
    ZeroEncouragementEffect,
)
from peerenc.estimands import (
    compute_estimand_report,
    ditt,
    et,
    identity_ok,
    ldt,
    lpt,
    pitt,
    theorem_1_check,
    theorem_2_check,
    theorem_3_check,
    member_averages,
    verify_theorems,
)
from peerenc.mechanisms import Mechanism
from peerenc.population import ComplianceType, Population
from conftest import make_individual, make_population, person, population, structural, table
from fuzz import defier_population, equal_effect_monotone, one_sided_population, \
    varying_effect_monotone
from oracles import (
    convert_to_tables,
    convolution_ybar_local,
    naive_two_stage_direct,
    naive_two_stage_spillover,
    oracle_ditt,
    oracle_entries_read,
    oracle_ybar_itt,
    oracle_ybar_local,
    poisson_binomial_pmf,
    reference_member_averages,
)

PHI = Mechanism("phi", 0.7)
PSI = Mechanism("psi", 0.3)


def averages(pop, mech):
    """The exact kernel's per-individual averages under mech, indexed by
    (block, member): ``itt(i, j, z)`` and ``local(i, j, d)``."""
    avg = member_averages(pop, mech)

    def itt(i, j, z):
        return float(avg.itt[z][pop.starts[i] + j])

    def local(i, j, d):
        return float(avg.local[d][pop.starts[i] + j])

    return itt, local


def test_poisson_binomial_matches_binomial():
    pmf = poisson_binomial_pmf([0.5] * 4)
    assert np.allclose(pmf, [1, 4, 6, 4, 1] / np.float64(16), atol=1e-15)
    assert poisson_binomial_pmf([]).tolist() == [1.0]
    # degenerate components are exact
    assert poisson_binomial_pmf([1.0, 0.0, 0.3]).tolist() == pytest.approx(
        [0.0, 0.7, 0.3, 0.0], abs=1e-15
    )


def test_moment_kernel_matches_convolution_on_large_blocks():
    """Closed-form peer-count moments against the exact Poisson-binomial
    distribution, on blocks too large for the enumeration oracles."""
    rng = np.random.default_rng(2020)
    kinds = ("at", "co", "nt", "de")
    for n in (1, 2, 7, 13, 20):
        labels = [[kinds[int(c)] for c in rng.integers(4, size=n)] for _ in range(2)]
        labels[0][0], labels[0][-1] = "at", "de"
        pop = make_population(labels, rng=rng)
        mechs = [Mechanism(f"v{n}_{k}", tuple(rng.uniform(0.05, 0.95, size=n)))
                 for k in range(2)]
        for mech in mechs:
            itt, local = averages(pop, mech)
            for i, n_i in enumerate(pop.sizes):
                for j in range(n_i):
                    for v in (0, 1):
                        own_d = int((pop.d1 if v else pop.d0)[pop.starts[i] + j])
                        assert itt(i, j, v) == pytest.approx(
                            convolution_ybar_local(pop, i, j, own_d, mech), abs=1e-12
                        )
                        assert local(i, j, v) == pytest.approx(
                            convolution_ybar_local(pop, i, j, v, mech), abs=1e-12
                        )


def _three_person_table_block():
    """complier, complier, never-taker; j0's outcome has an interaction."""
    idx = np.arange(8)
    d0 = (idx >> 2) & 1
    d1 = (idx >> 1) & 1
    d2 = idx & 1
    y0 = table(d0 + 10 * d1 + 100 * d2 + 5 * d0 * d1)
    flat = table(np.zeros(8))
    block = [person("co", y0), person("co", flat), person("nt", flat)]
    other = [person("co", structural(direct=1.0)) for _ in range(2)]
    return population([block, other])


def test_ybar_itt_three_person_table_hand_sum():
    pop = _three_person_table_block()
    half = Mechanism("half", 0.5)
    itt, _ = averages(pop, half)
    # own encouraged: d0=1, peer complier ~ Bernoulli(1/2), never-taker fixed 0:
    # four equally likely peer assignments, values (1, 1, 16, 16)
    assert itt(0, 0, 1) == pytest.approx(8.5, abs=1e-12)
    assert itt(0, 0, 0) == pytest.approx(5.0, abs=1e-12)
    assert itt(0, 0, 1) == pytest.approx(
        oracle_ybar_itt(pop, 0, 0, 1, half), abs=1e-12
    )


def test_ybar_local_three_person_table_hand_sum():
    pop = _three_person_table_block()
    p03 = Mechanism("m", 0.3)
    _, local = averages(pop, p03)
    # own treatment pinned to 1, complier peer treated w.p. 0.3: 1 + 15*0.3
    assert local(0, 0, 1) == pytest.approx(5.5, abs=1e-12)
    assert local(0, 0, 1) == pytest.approx(
        oracle_ybar_local(pop, 0, 0, 1, p03), abs=1e-12
    )


def test_ybar_singleton_block_equals_raw_potential_outcome():
    pop = make_population([["co"], ["nt"]], direct=2.0, intercept=1.0)
    itt, _ = averages(pop, PHI)
    _, local = averages(pop, PSI)
    assert itt(0, 0, 1) == pytest.approx(3.0, abs=0)
    assert itt(0, 0, 0) == pytest.approx(1.0, abs=0)
    assert itt(1, 0, 1) == pytest.approx(1.0, abs=0)
    assert local(0, 0, 1) == pytest.approx(3.0, abs=0)
    assert local(1, 0, 1) == pytest.approx(3.0, abs=0)


def test_ybar_no_interference_is_mechanism_free():
    pop = make_population([["co", "at", "nt"], ["co", "co"]], direct=1.5, peer=0.0)
    (itt_phi, _), (itt_psi, _) = averages(pop, PHI), averages(pop, PSI)
    for z in (0, 1):
        a = itt_phi(0, 0, z)
        b = itt_psi(0, 0, z)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(1.5 * z, abs=1e-14)


def test_ybar_all_never_taker_peers_degenerate():
    pop = make_population([["co", "nt", "nt"], ["co"]], direct=2.0, peer=7.0)
    # peers never treated: the peer coefficient cannot contribute
    for mech in (PHI, PSI):
        _, local = averages(pop, mech)
        assert local(0, 0, 1) == pytest.approx(2.0, abs=0)


def _all_kinds_population(rng, n):
    """Two blocks of n >= 4 individuals, each holding all four strata and
    structural, plain-table and encouragement-keyed members, and a pair of
    vector mechanisms."""
    def outcome(kind):
        if kind == "structural":
            return make_individual("co", rng)["outcome"]
        return table(rng.normal(size=(2**n,) if kind == "table" else (2**n, 2**n)))

    strata, kinds = ["at", "co", "nt", "de"], ["structural", "table", "keyed"]
    blocks = [[person(str(s), outcome(k)) for s, k in zip(
        rng.permutation([*strata, *rng.choice(strata, n - 4)]),
        rng.permutation([*kinds, *rng.choice(kinds, n - 3)]))] for _ in range(2)]
    return population(blocks), *(Mechanism(name, tuple(rng.uniform(0.05, 0.95, n).tolist()))
                                 for name in ("phi", "psi"))


def test_ybar_oracle_equality_structural_and_table(rng):
    cases = [varying_effect_monotone(rng, b_range=(2, 3), n_range=(1, 4)) for _ in range(8)]
    cases += [_all_kinds_population(rng, n) for n in (4, 4, 5)]
    for pop, a, b in cases:
        kernels = {mech: averages(pop, mech) for mech in (a, b)}
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                for mech in (a, b):
                    itt, local = kernels[mech]
                    for z in (0, 1):
                        assert itt(i, j, z) == pytest.approx(
                            oracle_ybar_itt(pop, i, j, z, mech), abs=1e-12
                        )
                    for d in (0, 1):
                        assert local(i, j, d) == pytest.approx(
                            oracle_ybar_local(pop, i, j, d, mech), abs=1e-12
                        )


def test_ditt_constant_outcomes_zero():
    pop = make_population([["co", "nt"], ["at", "co"]], intercept=3.0)
    res = ditt(member_averages(pop, PHI))
    assert res.population == pytest.approx(0.0, abs=1e-14)
    assert all(abs(v) <= 1e-14 for v in res.per_block)


def test_ditt_all_compliers_unit_direct_effect():
    pop = make_population([["co", "co"], ["co", "co", "co"]], direct=1.0)
    res = ditt(member_averages(pop, PHI))
    assert res.population == pytest.approx(1.0, abs=1e-14)


def test_ditt_matches_oracle_on_random_population(rng):
    pop, a, _ = varying_effect_monotone(rng, b_range=(2, 2), n_range=(2, 4))
    per_block, population = oracle_ditt(pop, a)
    res = ditt(member_averages(pop, a))
    assert res.population == pytest.approx(population, abs=1e-12)
    for got, want in zip(res.per_block, per_block):
        assert got == pytest.approx(want, abs=1e-12)


def test_pitt_no_interference_zero():
    pop = make_population([["co", "at"], ["co", "nt", "co"]], direct=2.0)
    ka, kb = member_averages(pop, PHI), member_averages(pop, PSI)
    for z in (0, 1):
        assert pitt(ka, kb, z).population == pytest.approx(0.0, abs=1e-14)


def test_pitt_same_mechanism_exact_zero(rng):
    pop, a, _ = varying_effect_monotone(rng)
    ka = member_averages(pop, a)
    res = pitt(ka, ka, 1)
    assert res.population == 0.0
    assert all(v == 0.0 for v in res.per_block)


def test_pitt_linear_closed_form():
    pop = make_population(
        [["co"] * 5, ["co"] * 5], peer=0.5
    )
    a = Mechanism("a", 0.8)
    b = Mechanism("b", 0.2)
    ka, kb = member_averages(pop, a), member_averages(pop, b)
    for z in (0, 1):
        res = pitt(ka, kb, z)
        assert res.population == pytest.approx(0.5 * 4 * 0.6, abs=1e-12)


def test_pitt_swap_negates_exactly(rng):
    pop, a, b = varying_effect_monotone(rng)
    ka, kb = member_averages(pop, a), member_averages(pop, b)
    fwd = pitt(ka, kb, 1)
    rev = pitt(kb, ka, 1)
    assert all(x == -y for x, y in zip(fwd.per_block, rev.per_block))


def test_et_examples():
    assert et(make_population([["co", "co"], ["co"]])).population == 1.0
    mixed = make_population([["at", "co", "co", "nt"], ["co"]])
    assert et(mixed).per_block[0] == pytest.approx(0.5, abs=0)
    cancel = make_population([["de", "co"], ["co"]])
    assert et(cancel).per_block[0] == 0.0


def test_ldt_additive_direct_effect():
    pop = make_population([["co", "co"], ["co", "co", "co"]], direct=2.0, peer=0.3)
    res = ldt(member_averages(pop, PHI))
    assert res.population == pytest.approx(2.0, abs=1e-12)


def test_ldt_empty_stratum_names_block():
    pop = make_population([["co", "nt"], ["nt", "nt"]], direct=2.0)
    with pytest.raises(EmptyStratumInBlock, match="block 1"):
        ldt(member_averages(pop, PHI))


def test_lpt_no_interference_zero():
    pop = make_population([["co", "at"], ["co", "nt"]], direct=2.0)
    ka, kb = member_averages(pop, PHI), member_averages(pop, PSI)
    for d in (0, 1):
        assert lpt(ka, kb, d).population == pytest.approx(0.0, abs=1e-14)
        assert lpt(ka, kb, d, ComplianceType.COMPLIER).population == pytest.approx(
            0.0, abs=1e-14
        )


def test_lpt_linear_closed_form():
    pop = make_population([["co"] * 5, ["co"] * 5], direct=1.0, peer=0.5)
    a = Mechanism("a", 0.9)
    b = Mechanism("b", 0.1)
    ka, kb = member_averages(pop, a), member_averages(pop, b)
    for d in (0, 1):
        res = lpt(ka, kb, d, ComplianceType.COMPLIER)
        assert res.population == pytest.approx(0.5 * 4 * 0.8, abs=1e-12)


def test_lpt_empty_stratum():
    pop = make_population([["nt", "nt"], ["co"]])
    with pytest.raises(EmptyStratumInBlock):
        lpt(member_averages(pop, PHI), member_averages(pop, PSI), 1,
            ComplianceType.COMPLIER)


def test_exclusion_violating_local_average_guarded():
    z_dep = table([[0.0, 1.0], [2.0, 3.0]])
    pop = population([[person("co", z_dep)], [person("co", structural())]])
    # the keyed member's local average marginalizes its own encouragement:
    # d pinned to 1, own z ~ Bernoulli(0.7)
    _, local = averages(pop, PHI)
    assert local(0, 0, 1) == pytest.approx(0.7 * 3.0 + 0.3 * 2.0, abs=1e-12)
    effect = ldt(member_averages(pop, PHI))
    assert effect.per_block[0] == pytest.approx(local(0, 0, 1) - local(0, 0, 0), abs=1e-12)


def test_a_table_of_2_to_the_22_entries_matches_the_moment_route():
    """A table block has no enumeration bound: the first member of a block of
    22 holds its structural outcome as a table of 2^22 entries, and the
    kernel gives it the closed-form moment values."""
    rng = np.random.default_rng(22)
    strata = ["at", "co", "nt", "de"]
    pop = make_population([["co", "nt"], rng.choice(strata, 22).tolist()], rng=rng)
    u, n = 2, 22
    rows = np.arange(2**n)
    own = (rows >> (n - 1)) & 1
    k = (np.bitwise_count(rows) - own).astype(float)
    intercept, direct, peer, interaction, curvature, noise = pop.coef[:, u]
    values = (intercept + direct * own + peer * k + interaction * own * k
              + curvature * k * k + noise)
    structural = np.arange(pop.n_individuals) != u
    tabled = pop.replace(structural=structural, coef=pop.coef * structural, table=values)
    for mech in (PHI, PSI):
        want, got = member_averages(pop, mech), member_averages(tabled, mech)
        for name in ("itt", "local"):
            assert np.abs(getattr(got, name)[:, u] - getattr(want, name)[:, u]).max() <= 1e-10
            assert np.array_equal(getattr(got, name)[:, structural],
                                  getattr(want, name)[:, structural])


# a member's kind and potential treatments (d0, d1)
_MEMBER = st.tuples(st.sampled_from(("structural", "plain", "keyed")), st.integers(0, 1),
                    st.integers(0, 1))


@st.composite
def mixed_populations(draw):
    """2-30 blocks of 1-6 members, each structural, a plain table or an
    encouragement-keyed table in any mix and order, and two scalar
    mechanisms. Coefficients and entries come from a drawn seed; about one
    in ten entries is a signed zero."""
    blocks = draw(st.lists(st.lists(_MEMBER, min_size=1, max_size=6), min_size=2, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = [m for block in blocks for m in block]
    kinds = np.array([kind for kind, _, _ in members])
    sizes = [len(block) for block in blocks]
    extents = [2**n * (2**n if kind == "keyed" else 1) for block, n in zip(blocks, sizes)
               for kind, _, _ in block if kind != "structural"]
    values = rng.normal(size=sum(extents))
    pop = Population(starts=np.cumsum([0, *sizes]), d0=[m[1] for m in members],
                     d1=[m[2] for m in members], structural=kinds == "structural",
                     z_dependent=kinds == "keyed",
                     coef=rng.normal(size=(6, len(members))) * (kinds == "structural"),
                     table=np.where(rng.random(values.size) < 0.1, np.copysign(0.0, values),
                                    values))
    probs = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2))
    return pop, [Mechanism(name, p) for name, p in zip(("phi", "psi"), probs)]


@settings(max_examples=100, deadline=None)
@given(case=mixed_populations())
def test_grouped_kernel_equals_the_per_block_reference_bit_for_bit(case):
    """member_averages evaluates all table members of one block size at once;
    each average equals a per-block, per-member reference to the bit."""
    pop, mechs = case
    for mech in mechs:
        got = member_averages(pop, mech)
        want_itt, want_local = reference_member_averages(pop, mech.probs)
        assert got.itt.tobytes() == want_itt.tobytes()
        assert got.local.tobytes() == want_local.tobytes()


@settings(max_examples=40, deadline=None)
@given(case=mixed_populations(), data=st.data())
def test_permuting_whole_blocks_permutes_the_kernel_bit_for_bit(case, data):
    """A member's averages depend on its own block alone, wherever it sits."""
    pop, mechs = case
    order = data.draw(st.permutations(range(pop.n_blocks)))
    units = np.concatenate([np.arange(pop.starts[i], pop.starts[i + 1]) for i in order])
    entries = np.concatenate([np.arange(pop.table_start[u], pop.table_start[u + 1])
                              for u in units])
    permuted = pop.replace(starts=np.cumsum([0, *np.diff(pop.starts)[order]]),
                           d0=pop.d0[units], d1=pop.d1[units], structural=pop.structural[units],
                           z_dependent=pop.z_dependent[units], coef=pop.coef[:, units],
                           table=pop.table[entries])
    for mech in mechs:
        want, got = member_averages(pop, mech), member_averages(permuted, mech)
        assert got.itt.tobytes() == want.itt[:, units].tobytes()
        assert got.local.tobytes() == want.local[:, units].tobytes()


def test_the_table_pass_in_chunks_equals_one_pass_and_peaks_with_the_chunk(monkeypatch):
    """Split into gathers of at most GATHER_ENTRIES entries (one member at
    least), the table pass gives every average of the one-chunk pass to the
    bit, and its peak allocation follows the chunk, not the block-size
    group: 16 plain blocks of n=10 gather 1.25 MiB at once unchunked."""
    from peerenc import estimands

    rng = np.random.default_rng(7)
    sizes = [10] * 16 + [5] * 8 + [10] * 2
    kinds = np.repeat(["plain"] * 16 + ["keyed"] * 8 + ["structural"] * 2, sizes)
    n_of = np.repeat(sizes, sizes)
    entries = int(np.where(kinds == "plain", 2**n_of, 0).sum()
                  + np.where(kinds == "keyed", 4**n_of, 0).sum())
    pop = Population(starts=np.cumsum([0, *sizes]), d0=np.zeros(kinds.size, dtype=np.int64),
                     d1=rng.integers(0, 2, kinds.size), structural=kinds == "structural",
                     z_dependent=kinds == "keyed",
                     coef=rng.normal(size=(6, kinds.size)) * (kinds == "structural"),
                     table=rng.normal(size=entries))
    mech = Mechanism("phi", 0.6)
    want = member_averages(pop, mech)

    def traced(gather_entries):
        monkeypatch.setattr(estimands, "GATHER_ENTRIES", gather_entries)
        tracemalloc.start()
        try:
            got = member_averages(pop, mech)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, unchunked = traced(1 << 30)
    for gather_entries in (1, 100, 4096):
        got, peak = traced(gather_entries)
        assert got.itt.tobytes() == want.itt.tobytes()
        assert got.local.tobytes() == want.local.tobytes()
    bound = 12 * 4096 * 8  # bytes: a dozen 4096-entry gathers
    assert peak <= bound < unchunked / 8, (peak, unchunked)


def test_kernels_are_read_only_and_a_contrast_needs_one_population(rng):
    pop, a, b = varying_effect_monotone(rng)
    ka = member_averages(pop, a)
    for arr in (ka.itt, ka.local):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    other = member_averages(convert_to_tables(pop), b)
    for contrast in (lambda: pitt(ka, other, 1), lambda: lpt(ka, other, 0),
                     lambda: theorem_2_check(ka, other), lambda: theorem_3_check(ka, other)):
        with pytest.raises(ValueError, match="same population"):
            contrast()


# --------------------------------------------------------------------------
# Identities from the averaging arguments
# --------------------------------------------------------------------------


def test_individual_decomposition_identity(rng):
    """itt contrast = (d1-d0) * local contrast, individual by individual."""
    for _ in range(6):
        pop, a, _ = varying_effect_monotone(rng)
        itt, local = averages(pop, a)
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                u = pop.starts[i] + j
                lhs = itt(i, j, 1) - itt(i, j, 0)
                rhs = (int(pop.d1[u]) - int(pop.d0[u])) * (local(i, j, 1) - local(i, j, 0))
                assert lhs == pytest.approx(rhs, abs=1e-10)


def test_individual_switching_decomposition(rng):
    """mechanism contrast at z=1 = d1*delta_1 + (1-d1)*delta_0 per individual."""
    for _ in range(6):
        pop, a, b = varying_effect_monotone(rng)
        (itt_a, local_a), (itt_b, local_b) = averages(pop, a), averages(pop, b)
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                lhs = itt_a(i, j, 1) - itt_b(i, j, 1)
                d1 = int(pop.d1[pop.starts[i] + j])
                delta1 = local_a(i, j, 1) - local_b(i, j, 1)
                delta0 = local_a(i, j, 0) - local_b(i, j, 0)
                assert lhs == pytest.approx(d1 * delta1 + (1 - d1) * delta0, abs=1e-10)


def test_population_value_is_mean_of_blocks(rng):
    pop, a, b = varying_effect_monotone(rng)
    ka, kb = member_averages(pop, a), member_averages(pop, b)
    for summary in (ditt(ka), pitt(ka, kb, 1), et(pop)):
        assert summary.population == sum(summary.per_block) / len(summary.per_block)


def test_population_value_sums_blocks_left_to_right():
    """Ten blocks whose uptake effect is 0.1 each: a left-to-right sum reads
    0.9999999999999999, where a compensated sum (Python 3.12's ``sum()``)
    reads 1.0, so the report's bytes would depend on the interpreter."""
    summary = et(make_population([["co"] + ["nt"] * 9] * 10))
    assert summary.per_block.tolist() == [0.1] * 10
    assert summary.population == 0.9999999999999999 / 10


def test_population_value_of_negative_zeros_is_positive_zero():
    """A sum starting from +0.0 writes a row of -0.0 block values as a +0.0
    population value; the block values keep their sign."""
    coef = dict.fromkeys(("intercept", "direct", "peer", "interaction", "curvature", "noise"),
                         -0.0)
    pop = make_population([["co", "nt"], ["co", "at", "co"]], **coef)
    entry = json.loads(compute_estimand_report(pop, PHI, PSI).to_json())["entries"][
        "ybar_itt[z=0,mech=phi]"]
    assert [math.copysign(1.0, v) for v in entry["per_block"]] == [-1.0, -1.0]
    assert math.copysign(1.0, entry["population"]) == 1.0


def test_block_values_are_read_only_float64_arrays(rng):
    pop, a, b = varying_effect_monotone(rng)
    ka, kb = member_averages(pop, a), member_averages(pop, b)
    arrays = [ditt(ka).per_block, et(pop).per_block]
    for rep in (theorem_1_check(ka), theorem_3_check(ka, kb, z=0)):
        arrays += [rep.block_lhs, rep.block_rhs]
    for arr in arrays:
        assert arr.dtype == np.float64 and arr.shape == (pop.n_blocks,)
        assert not arr.flags.writeable


def test_theorem_1_blockwise_identity_unconstrained(rng):
    for _ in range(10):
        pop, a, _ = varying_effect_monotone(rng)
        rep = theorem_1_check(member_averages(pop, a))
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_1_population_identity_equal_effects(rng):
    for _ in range(10):
        pop, a, _ = equal_effect_monotone(rng, b_range=(2, 8), n_range=(1, 6))
        rep = theorem_1_check(member_averages(pop, a))
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok
        assert rep.note is None


def test_theorem_1_unequal_uptake_effects_diagnosed():
    """Hand-built counterexample: the block identity holds everywhere while
    the population-level ratio does not, and the report says why."""
    pop = population([[make_individual("co", direct=2.0), make_individual("nt")],
                      [make_individual("co"), make_individual("co")]])
    rep = theorem_1_check(member_averages(pop, PHI))
    assert rep.lhs == pytest.approx((1.0 / 2) / (3.0 / 4), abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.passed
    assert rep.block_identity_ok
    assert rep.assumptions_ok
    assert "unequal uptake" in rep.note
    payload = rep.to_dict()
    assert payload["block_identity_ok"] is True


def test_defiers_break_block_identity_too(rng):
    found = False
    for _ in range(10):
        pop, a, b = defier_population(rng)
        rep = theorem_1_check(member_averages(pop, a))
        if not rep.block_identity_ok:
            found = True
            break
    assert found


def test_theorem_2_blockwise_identity_unconstrained(rng):
    for _ in range(10):
        pop, a, b = varying_effect_monotone(rng)
        rep = theorem_2_check(member_averages(pop, a), member_averages(pop, b))
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_2_population_identity_equal_effects(rng):
    for _ in range(10):
        pop, a, b = equal_effect_monotone(rng, b_range=(2, 8), n_range=(1, 6))
        rep = theorem_2_check(member_averages(pop, a), member_averages(pop, b))
        assert rep.passed, f"gap={rep.gap}"


def test_theorem_2_symmetric_peer_effect_both_sides_zero(rng):
    # peer influence independent of own treatment: the lpt difference vanishes
    pop = make_population([["co", "co", "nt"], ["co", "at", "co"]],
                          direct=2.0, peer=0.6, interaction=0.0, curvature=0.0)
    rep = theorem_2_check(member_averages(pop, PHI), member_averages(pop, PSI))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_theorem_3_one_sided_exact(rng):
    for _ in range(10):
        pop, a, b = one_sided_population(rng)
        rep = theorem_3_check(member_averages(pop, a), member_averages(pop, b), z=0)
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_3_mirror_exact(rng):
    for _ in range(10):
        pop, a, b = one_sided_population(rng, mirror=True)
        rep = theorem_3_check(member_averages(pop, a), member_averages(pop, b), z=1)
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok


def test_theorem_3_fails_with_always_takers(rng):
    # monotone but not one-sided: generically a material gap at z=0
    pop = make_population([["co", "at", "at"], ["co", "at"]],
                          direct=1.0, peer=0.0, interaction=1.5)
    rep = theorem_3_check(member_averages(pop, PHI), member_averages(pop, PSI), z=0)
    assert not rep.assumptions_ok
    assert abs(rep.gap) > 1e-6


def test_theorem_1_defiers_break_identity(rng):
    found_material_gap = False
    for _ in range(10):
        pop, a, b = defier_population(rng)
        rep = theorem_1_check(member_averages(pop, a))
        assert not rep.assumptions_ok
        if abs(rep.gap) > 1e-3:
            found_material_gap = True
    assert found_material_gap


def test_theorem_checks_zero_uptake(rng):
    pop = make_population([["nt", "nt"], ["nt", "at"]])
    with pytest.raises(ZeroEncouragementEffect):
        theorem_1_check(member_averages(pop, PHI))
    with pytest.raises(ZeroEncouragementEffect):
        theorem_2_check(member_averages(pop, PHI), member_averages(pop, PSI))


def test_a_zero_uptake_block_is_undefined_among_defined_ones():
    """Block 1 pairs a complier with a defier, so its uptake effect is zero
    and its ratio lhs undefined (null in the payload); the block identity is
    judged on block 0 alone, where it holds."""
    pop = make_population([["co", "nt"], ["co", "de"]], direct=2.0, peer=0.5)
    a, b = member_averages(pop, Mechanism("phi", 0.7)), member_averages(pop, Mechanism("psi", 0.2))
    for rep in (theorem_1_check(a), theorem_2_check(a, b)):
        assert np.isfinite(rep.block_lhs[0]) and np.isnan(rep.block_lhs[1])
        assert rep.to_dict()["block_lhs"][1] is None
        assert rep.block_identity_ok


def test_assumption_notes_name_each_violation_in_order():
    """A population violating every assumption: each check lists the notes
    of the assumptions it rests on, monotonicity before exclusion before
    one-sided compliance or its mirror, and verify leaves the mirror out."""
    keyed = table(np.arange(16.0).reshape(4, 4))
    pop = population([[person("de", keyed), person("co", keyed)],
                      [person("co", structural(direct=1.0)), person("at", structural())]])
    a, b = member_averages(pop, PHI), member_averages(pop, PSI)
    monotone = "monotonicity violated: defiers present"
    exclusion = "exclusion restriction violated: encouragement-dependent outcomes"
    one_sided = "one-sided compliance violated: someone takes treatment unencouraged"
    mirror = "mirror condition violated: someone declines treatment when encouraged"
    for rep in (theorem_1_check(a), theorem_2_check(a, b)):
        assert rep.assumption_notes == (monotone, exclusion)
    assert theorem_3_check(a, b, z=0).assumption_notes == (exclusion, one_sided)
    assert theorem_3_check(a, b, z=1).assumption_notes == (exclusion, mirror)
    assert [t.name for t in verify_theorems(pop, PHI, PSI).theorems] == [
        "theorem_1", "theorem_2", "theorem_3[z=0]"]


def test_all_complier_tables_match_naive_two_stage_oracle(rng):
    pop = make_population([["co", "co", "co"], ["co", "co"]], rng=rng)
    pop = convert_to_tables(pop)
    direct = ldt(member_averages(pop, PHI), ComplianceType.COMPLIER).population
    assert direct == pytest.approx(naive_two_stage_direct(pop, PHI), abs=1e-10)
    for d in (0, 1):
        spill = lpt(member_averages(pop, PHI), member_averages(pop, PSI), d).population
        assert spill == pytest.approx(
            naive_two_stage_spillover(pop, d, PHI, PSI), abs=1e-10
        )


# --------------------------------------------------------------------------
# Batch report
# --------------------------------------------------------------------------


def test_estimand_report_dual_encoding_identical(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(3, 5), n_range=(2, 5))
    structural = compute_estimand_report(pop, a, b)
    tabled = compute_estimand_report(convert_to_tables(pop), a, b)
    assert structural.entries.keys() == tabled.entries.keys()
    for key, summary in structural.entries.items():
        other = tabled.entries[key]
        assert summary.population == pytest.approx(other.population, abs=1e-10)
        for x, y in zip(summary.per_block, other.per_block):
            assert x == pytest.approx(y, abs=1e-10)


def test_estimand_report_serialization(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(1, 3))
    report = compute_estimand_report(pop, a, b)
    again = compute_estimand_report(pop, a, b)
    assert again.to_json() == report.to_json()
    assert json.loads(report.to_json()) == report.to_dict()
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "estimand,block,value"
    assert any(",population," in line for line in csv_text.splitlines())


def test_estimand_report_skips_complier_families_when_undefined():
    pop = make_population([["co", "nt"], ["nt"]], direct=1.0)
    report = compute_estimand_report(pop, PHI, PSI)
    assert "complier_local_effects" in report.skipped
    assert "et[1,0]" in report.entries


def test_estimand_report_exclusion_violation_skips_local():
    z_dep = table([[0.0, 1.0], [2.0, 3.0]])
    pop = population([[person("co", z_dep)], [person("co", structural())]])
    report = compute_estimand_report(pop, PHI, PSI)
    assert "local_effects" in report.skipped
    assert not any(k.startswith("ldt") for k in report.entries)


def test_keyed_member_local_effects_are_the_identity_checks_rhs():
    """A local family is defined for an encouragement-keyed member, exactly as
    the identity checks evaluate it; only the report withholds it."""
    rng = np.random.default_rng(28)
    z_dep = table(rng.normal(size=(4, 4)))
    pop = population([
        [person("co", z_dep), person("co", structural(direct=1.0, peer=0.5))],
        [person("co", structural(direct=2.0, peer=-0.3)), person("nt", structural(peer=1.0))],
    ])
    assert not pop.exclusion_ok
    a, b = member_averages(pop, PHI), member_averages(pop, PSI)
    co = ComplianceType.COMPLIER
    direct, rep1 = ldt(a), theorem_1_check(a)
    assert direct.population == rep1.rhs
    assert np.array_equal(direct.per_block, rep1.block_rhs)
    peer = [lpt(a, b, d, co) for d in (0, 1)]
    rep2 = theorem_2_check(a, b)
    assert np.array_equal(peer[1].per_block - peer[0].per_block, rep2.block_rhs)
    assert rep2.rhs == pytest.approx(np.mean(peer[1].per_block - peer[0].per_block),
                                     rel=1e-15, abs=1e-15)
    assert lpt(a, b, 0).population == theorem_3_check(a, b, 0).rhs
    for rep in (rep1, rep2):
        assert "exclusion restriction violated: encouragement-dependent outcomes" \
            in rep.assumption_notes
    report = compute_estimand_report(pop, PHI, PSI)
    assert "local_effects" in report.skipped
    assert not any(k.startswith(("ybar_local", "ldt", "lpt")) for k in report.entries)


def _entries_read_populations(rng) -> dict:
    """Structural, plain-table, keyed and mixed populations, each with blocks
    of several sizes; the mixed one holds blocks of each kind and a block
    with all three."""
    def plain(n):
        return table(rng.normal(size=2**n))

    def keyed(n):
        return table(rng.normal(size=(2**n, 2**n)))

    def shaped(**coef):
        return structural(**{"direct": 1.0, "peer": 0.5, **coef})

    return {
        "structural": make_population([["co"], ["co", "nt", "at"], ["co", "co"]], rng=rng),
        "plain": population([[person("co", plain(n)) for _ in range(n)] for n in (1, 3, 2, 4)]),
        "keyed": population([[person("co", keyed(n)) for _ in range(n)] for n in (2, 1, 3)]),
        "mixed": population([
            [person("co", shaped()), person("nt", shaped(peer=1.0))],
            [person("co", plain(3)), person("at", shaped()), person("co", keyed(3))],
            [person("co", keyed(2)), person("co", keyed(2))],
            [person("co", plain(1))],
            [person("nt", plain(4)), person("co", plain(4)), person("co", shaped()),
             person("co", shaped(direct=2.0))],
        ]),
    }


@pytest.mark.parametrize("kind", ["structural", "plain", "keyed", "mixed"])
def test_entries_read_counts_each_table_members_entries(kind):
    """The report's metadata names each block's route and the table entries
    the kernel reads there, as the oracle counts them member by member."""
    pop = _entries_read_populations(np.random.default_rng(31))[kind]
    metadata = compute_estimand_report(pop, PHI, PSI).metadata
    want = oracle_entries_read(pop)
    assert list(metadata["entries_read"]) == want
    assert list(metadata["evaluation"]) == ["contraction" if count else "moments"
                                            for count in want]
    assert (0 in want) == (kind in ("structural", "mixed"))
