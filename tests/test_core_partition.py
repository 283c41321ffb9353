"""Tests for the partition solvers (Equations 1, 2, 4, 6)."""

import dataclasses

import pytest

from repro.core import (
    SystemParameters,
    balance_flops,
    balance_with_network,
    balance_with_transfer,
    fw_op_times,
    fw_partition,
    lu_stripe_partition,
    lu_stripe_times,
)


def lu_params(**over):
    base = dict(p=6, o_f=16, f_f=130e6, cpu_flops=3.9e9, b_d=1.04e9, b_n=2e9)
    base.update(over)
    return SystemParameters(**base)


def fw_params(**over):
    base = dict(p=6, o_f=16, f_f=120e6, cpu_flops=190e6, b_d=960e6, b_n=2e9)
    base.update(over)
    return SystemParameters(**base)


# ------------------------------------------------------------ basic splits


def test_balance_flops_equal_times():
    params = lu_params()
    split = balance_flops(1e12, params)
    assert split.t_p == pytest.approx(split.t_f)
    assert split.n_p + split.n_f == pytest.approx(1e12)
    # Shares proportional to computing power.
    assert split.n_f / split.n_p == pytest.approx(2.08 / 3.9)


def test_balance_with_transfer_satisfies_eq1():
    params = lu_params()
    split = balance_with_transfer(1e12, d_f_bytes=1e9, params=params)
    # Eq (1): T_p + D_f/B_d = T_f
    assert split.t_p + split.t_transfer == pytest.approx(split.t_f)
    assert split.total == pytest.approx(1e12)


def test_transfer_shifts_work_to_fpga():
    """Paying the DRAM transfer on the CPU path moves flops to the FPGA."""
    params = lu_params()
    plain = balance_flops(1e12, params)
    with_xfer = balance_with_transfer(1e12, d_f_bytes=5e9, params=params)
    assert with_xfer.n_f > plain.n_f


def test_balance_with_network_satisfies_eq2():
    params = lu_params()
    split = balance_with_network(1e12, d_f_bytes=1e9, d_p_bytes=2e9, params=params)
    assert split.t_p + split.t_transfer + split.t_network == pytest.approx(split.t_f)


def test_splits_clamp_to_range():
    """A huge transfer cost cannot push N_f beyond the total workload."""
    params = lu_params()
    split = balance_with_transfer(1e6, d_f_bytes=1e12, params=params)
    assert split.n_f == pytest.approx(1e6)
    assert split.n_p == 0.0


def test_split_validation():
    params = lu_params()
    with pytest.raises(ValueError):
        balance_flops(-1, params)
    with pytest.raises(ValueError):
        balance_with_transfer(1e6, -1, params)
    with pytest.raises(ValueError):
        balance_with_network(1e6, 1, -1, params)


def test_makespan_property():
    params = lu_params()
    split = balance_with_transfer(1e12, 1e9, params)
    assert split.makespan == pytest.approx(split.t_f)


# ---------------------------------------------------------- Eq. 4 (LU)


def test_lu_stripe_times_formulas():
    params = lu_params()
    b, b_f, k = 3000, 1280, 8
    t_p, t_f, t_comm, t_mem = lu_stripe_times(b, b_f, k, params)
    assert t_f == pytest.approx(1280 * 3000 / (5 * 130e6))
    assert t_p == pytest.approx(2 * 1720 * 3000 * 8 / (5 * 3.9e9))
    assert t_comm == pytest.approx(2 * 3000 * 8 * 8 / 2e9)
    assert t_mem == pytest.approx((1280 * 8 + 3000 * 8 / 5) * 8 / 1.04e9)


def test_lu_partition_satisfies_eq4_before_rounding():
    params = lu_params()
    part = lu_stripe_partition(3000, 8, params)
    t_p, t_f, t_comm, t_mem = lu_stripe_times(3000, part.b_f_exact, 8, params)
    assert t_f == pytest.approx(t_comm + t_mem + t_p, rel=1e-9)


def test_lu_partition_paper_scale():
    """At the paper's parameters the solver lands near b_f ~ 1085.

    (The paper reports 1280 but its own Eq. 4 with its own constants
    yields ~1085; see DESIGN.md for the documented inconsistency.  The
    paper's value is within the flat basin around the optimum, which
    Figure 5's shape confirms.)
    """
    part = lu_stripe_partition(3000, 8, lu_params())
    assert part.b_f == 1080  # 1085.3 rounded down to a multiple of 8
    assert part.b_p == 1920
    assert part.b_p + part.b_f == 3000
    assert part.b_f % 8 == 0


def test_lu_partition_sram_constraint_binds():
    """With tiny SRAM the cap b_f <= sram_words (p-1)/b binds."""
    small = lu_params(sram_bytes=2**20)  # 1 MB -> 131072 words
    part = lu_stripe_partition(3000, 8, small)
    assert part.b_f <= 131072 * 5 // 3000
    assert part.sram_words <= small.sram_words


def test_lu_partition_sram_not_enforced():
    small = lu_params(sram_bytes=2**20)
    free = lu_stripe_partition(3000, 8, small, enforce_sram=False)
    capped = lu_stripe_partition(3000, 8, small, enforce_sram=True)
    assert free.b_f > capped.b_f


def test_lu_partition_faster_cpu_shifts_to_cpu():
    base = lu_stripe_partition(3000, 8, lu_params())
    fast = lu_stripe_partition(3000, 8, lu_params(cpu_flops=7.8e9))
    assert fast.b_f < base.b_f


def test_lu_partition_faster_fpga_shifts_to_fpga():
    base = lu_stripe_partition(3000, 8, lu_params())
    fast = lu_stripe_partition(3000, 8, lu_params(f_f=260e6, b_d=2.08e9))
    assert fast.b_f > base.b_f


def test_lu_partition_validation():
    with pytest.raises(ValueError, match="p >= 2"):
        lu_stripe_partition(3000, 8, lu_params(p=1))
    with pytest.raises(ValueError, match="multiple of k"):
        lu_stripe_partition(3001, 8, lu_params())
    with pytest.raises(ValueError):
        lu_stripe_partition(0, 8, lu_params())
    with pytest.raises(ValueError, match="out of range"):
        lu_stripe_times(3000, 4000, 8, lu_params())


# ---------------------------------------------------------- Eq. 6 (FW)


def test_fw_op_times_paper_values():
    t_p, t_f, t_comm, t_mem = fw_op_times(256, 8, fw_params())
    assert t_p == pytest.approx(2 * 256**3 / 190e6)
    assert t_f == pytest.approx(2 * 256**3 / (8 * 120e6))
    assert t_comm == pytest.approx(256**2 * 8 / 2e9)
    assert t_mem == pytest.approx(2 * 256**2 * 8 / 960e6)


def test_fw_partition_paper_point():
    """n=18432, b=256, p=6: the paper derives l1=2, l2=10 (ratio ~1/5)."""
    part = fw_partition(18432, 256, 8, fw_params())
    assert (part.l1, part.l2) == (2, 10)
    assert part.per_phase_ops == 12
    assert 1.8 < part.l1_exact < 2.1


def test_fw_partition_headline_point():
    """n=92160 (the Figure 9 size): 60 ops per node per phase."""
    part = fw_partition(92160, 256, 8, fw_params())
    assert part.per_phase_ops == 60
    assert (part.l1, part.l2) == (10, 50)


def test_fw_partition_satisfies_eq6_continuously():
    params = fw_params()
    part = fw_partition(18432, 256, 8, params)
    l1 = part.l1_exact
    l2 = 12 - l1
    lhs = l1 * part.t_p + part.t_comm + l2 * part.t_mem
    rhs = l2 * part.t_f
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fw_partition_all_fpga_when_cpu_is_useless():
    """A hopeless CPU drives l1 to 0 (FPGA-only is best, like Fig. 7's tail)."""
    part = fw_partition(18432, 256, 8, fw_params(cpu_flops=1e3))
    assert part.l1 == 0
    assert part.l2 == 12


@pytest.mark.parametrize("cpu_flops", [2e8, 4e8])
def test_fw_partition_all_cpu_when_eq6_denominator_not_positive(cpu_flops):
    """t_p + t_f == t_mem (2e8) or < t_mem (4e8): Eq. (6) has no balance
    point; both sides fall as l1 grows, so the all-processor split wins."""
    params = SystemParameters(p=2, o_f=4, f_f=1e8, cpu_flops=cpu_flops, b_d=4e8, b_n=1e9)
    part = fw_partition(8, 2, 2, params)
    assert part.t_p + part.t_f - part.t_mem <= 0.0
    assert (part.l1, part.l2) == (2, 0)
    assert part.l1_exact == 2.0
    splits = [
        dataclasses.replace(part, l1=l1, l2=2 - l1).phase_makespan for l1 in range(3)
    ]
    assert part.phase_makespan == min(splits)


def test_fw_partition_mostly_cpu_when_fpga_slow():
    part = fw_partition(18432, 256, 8, fw_params(f_f=1e6, b_d=8e6))
    assert part.l1 > part.l2


def test_fw_partition_validation():
    with pytest.raises(ValueError, match="divide"):
        fw_partition(1000, 256, 8, fw_params())
    with pytest.raises(ValueError, match="integer number of block columns"):
        fw_partition(256 * 7, 256, 8, fw_params())  # 7 columns over 6 nodes
    with pytest.raises(ValueError):
        fw_op_times(0, 8, fw_params())


def test_fw_phase_makespan_and_share():
    part = fw_partition(18432, 256, 8, fw_params())
    assert part.phase_makespan >= part.l2 * part.t_f
    assert 0 < part.cpu_share < 1
