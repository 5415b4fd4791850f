"""``energia experiment NAME``: ``EXPERIMENTS`` maps each name to a
function of no arguments returning ``(results, holds)``: the report's
results, less the ``"experiment"`` key the CLI adds, and whether the
experiment holds (exit code 0, else 1)."""

from fractions import Fraction

from .bsg import CALIBRATED
from .checks import check_holder_mixed, check_war2
from .decomposer import DecomposeConfig, certificates, decompose
from .energy import MULTIPLICATIVE, mixed_energy
from .errors import ZeroElementError
from .sets import IntSet


def warren_squares():
    r = check_war2(2, 2, 20)
    return {"report": r.as_dict()}, r.holds


def ap_gp_mix():
    A = IntSet(list(range(1, 33)) + [3**i for i in range(16)])
    cfg = DecomposeConfig(k=Fraction(6, 5), s=2, q=4, mode=CALIBRATED)
    d = decompose(A, cfg)  # raises past the iteration budget
    certs = certificates(A, d, cfg)
    ok = certs["B"]["holds"] and certs["C"]["holds"]
    results = {
        "B_size": len(d.B),
        "C_size": len(d.C),
        "iterations_used": d.iterations_used,
        "budget": d.budget,
        "E2_B": certs["B"]["count"],
        "M2_C": certs["C"]["count"],
        "holds": ok,
    }
    return results, ok


def zero_obstruction():
    A = IntSet(range(0, 11))
    cross = mixed_energy([A, A, A, A], MULTIPLICATIVE).count
    try:
        check_holder_mixed([A, A, A, A], MULTIPLICATIVE)
        guard_fired = False
    except ZeroElementError:
        guard_fired = True
    ok = cross >= 121 and guard_fired
    return {"mixed_mult_energy": str(cross), "guard_fired": guard_fired, "holds": ok}, ok


EXPERIMENTS = {"warren-squares": warren_squares, "ap-gp-mix": ap_gp_mix, "zero-obstruction": zero_obstruction}
