"""Tests for the CLI entry point and the machine presets."""

import pytest

from repro.cli import main
from repro.hw import FloydWarshallDesign, MatrixMultiplyDesign, max_pes
from repro.hw.fw_design import FW_DESIGN_SPEC
from repro.hw.mm_design import MM_DESIGN_SPEC
from repro.machine import ALL_PRESETS, cray_xt3_drc, sgi_rasc, src_map_station


# --------------------------------------------------------------------- CLI


def test_cli_plan_lu(capsys):
    assert main(["plan-lu"]) == 0
    out = capsys.readouterr().out
    assert "b_f (FPGA rows)" in out
    assert "l (Eq. 5)" in out
    assert "3" in out


def test_cli_plan_fw(capsys):
    assert main(["plan-fw", "--n", "18432"]) == 0
    out = capsys.readouterr().out
    assert "l1 (CPU ops/phase)" in out
    assert "l2 (FPGA ops/phase)" in out


def test_cli_fw_small(capsys):
    """The fw command at a reduced size runs the full comparison."""
    assert main(["fw", "--n", "18432"]) == 0
    out = capsys.readouterr().out
    assert "Hybrid" in out and "FPGA-only" in out
    assert "speedup vs CPU-only" in out


def test_cli_lu_small(capsys):
    assert main(["lu", "--n", "12000"]) == 0
    out = capsys.readouterr().out
    assert "Hybrid" in out and "Processor-only" in out


def test_cli_machines(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "Cray XD1" in out
    assert "SGI RASC" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lu", "--n", "100", "--b", "30"], "b=30 must divide n=100"),
        (["lu", "--p", "1"], "the LU design needs p >= 2 nodes, got 1"),
        (["fw", "--n", "100", "--b", "30"], "b=30 must divide n=100"),
        (["plan-lu", "--n", "100", "--b", "30"], "b=30 must divide n=100"),
        (["plan-fw", "--p", "0"], "p must be >= 1, got 0"),
    ],
)
def test_cli_bad_design_arguments_give_one_line_error(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out == f"error: {message}\n"


# ------------------------------------------------------------------ presets


def test_all_presets_construct():
    for factory in ALL_PRESETS.values():
        spec = factory()
        assert spec.p >= 1
        assert spec.node.processor.sustained_flops("dgemm") > 0


def test_presets_support_both_designs():
    """Every preset's FPGA fits at least one PE of each design and can
    derive SystemParameters for both applications."""
    for factory in ALL_PRESETS.values():
        spec = factory()
        mm = MatrixMultiplyDesign.for_device(spec.node.fpga.device)
        fwd = FloydWarshallDesign.for_device(spec.node.fpga.device)
        assert mm.k >= 1 and fwd.k >= 1
        params_mm = spec.parameters("dgemm", mm)
        params_fw = spec.parameters("fw", fwd)
        assert params_mm.fpga_flops > 0
        assert params_fw.b_d > 0


def test_xt3_fits_more_pes_than_xd1():
    """The Virtex-4 LX200 (DRC module) is larger than the XC2VP50."""
    xt3 = cray_xt3_drc()
    assert max_pes(MM_DESIGN_SPEC, xt3.node.fpga.device) > 8
    assert max_pes(FW_DESIGN_SPEC, xt3.node.fpga.device) > 8


def test_src_map_is_single_node_default():
    assert src_map_station().p == 1


def test_rasc_shared_memory_bandwidths():
    spec = sgi_rasc()
    assert spec.node.fpga.dram_link_bandwidth == pytest.approx(6.4e9)


def test_preset_factories_take_p():
    assert cray_xt3_drc(p=12).p == 12


def test_cli_experiments_selected(capsys):
    assert main(["experiments", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] table1" in out
    assert "All reproduction checks passed." in out


def test_cli_experiments_unknown_id(capsys):
    assert main(["experiments", "--only", "bogus"]) == 2
    assert "unknown experiment ids" in capsys.readouterr().out


def test_cli_validate(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "14/14 validations passed." in out
