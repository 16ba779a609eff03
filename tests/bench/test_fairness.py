"""Unit tests for Jain's fairness index."""

import subprocess
import sys

import pytest

from repro.bench.fairness import jains_fairness, proportional_shares


class TestJain:
    def test_ideal_allocation_is_one(self):
        assert jains_fairness([10, 20, 30], [10, 20, 30]) == pytest.approx(1.0)

    def test_scaled_allocation_still_one(self):
        # Jain's index measures proportions, not magnitudes.
        assert jains_fairness([5, 10, 15], [10, 20, 30]) == pytest.approx(1.0)

    def test_single_component(self):
        assert jains_fairness([7], [3]) == pytest.approx(1.0)

    def test_skew_reduces_index(self):
        fair = jains_fairness([10, 10], [10, 10])
        skewed = jains_fairness([19, 1], [10, 10])
        assert skewed < fair

    def test_paper_magnitudes(self):
        # The paper's 0.87 case: NFS far short of a 4x share while the
        # others overshoot.
        desired = proportional_shares(28.0, [1, 1, 1, 4])
        delivered = [5.4, 5.4, 5.4, 8.0]
        value = jains_fairness(delivered, desired)
        assert 0.75 < value < 0.95

    def test_total_starvation(self):
        value = jains_fairness([30, 0], [15, 15])
        assert value == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            jains_fairness([1, 2], [1])
        with pytest.raises(ValueError):
            jains_fairness([], [])
        with pytest.raises(ValueError):
            jains_fairness([1], [0])


class TestShares:
    def test_proportional_shares(self):
        assert proportional_shares(28.0, [1, 1, 1, 4]) == pytest.approx(
            [4.0, 4.0, 4.0, 16.0]
        )

    def test_zero_ratios_rejected(self):
        with pytest.raises(ValueError):
            proportional_shares(10, [0, 0])


#: (delivered, desired, index) as the numpy implementation this helper
#: replaced computed them for Fig. 4's four stride rows and the
#: idleness ablation -- recorded as hex floats, compared bit for bit.
RECORDED_FIG4 = [
    ([7.282380799999999, 7.2741888, 7.2807424, 7.2725504],
     [7.277465599999999] * 4, "0x1.fffff4f2065aap-1"),
    ([6.0660224000000005, 12.1294336, 6.0676608, 6.0627455999999995],
     [6.065172479999999, 12.130344959999999,
      6.065172479999999, 6.065172479999999], "0x1.fffffd0b7be57p-1"),
    ([13.643980800000001, 4.5439488, 9.1042816, 4.5439488],
     [13.644068571428571, 4.548022857142857,
      9.096045714285713, 4.548022857142857], "0x1.ffffed52886dep-1"),
    ([5.490944, 4.36864, 5.4876672, 10.5205248],
     [3.6953965714285713] * 3 + [14.781586285714285],
     "0x1.df878f0b610fcp-1"),
    ([3.5215872000000004, 3.3217024, 3.5265024, 13.005158400000001],
     [3.3392786285714284] * 3 + [13.357114514285714],
     "0x1.ff59b63003f33p-1"),
]


@pytest.mark.parametrize("delivered,desired,recorded", RECORDED_FIG4)
def test_pure_python_matches_recorded_numpy_values(delivered, desired,
                                                   recorded):
    assert jains_fairness(delivered, desired) == float.fromhex(recorded)


def test_importing_the_bench_package_does_not_import_numpy():
    code = "import sys, repro.bench; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
