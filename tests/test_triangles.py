import itertools
import math

import numpy as np
import pytest
from helpers import check_sphere_chain, random_obtuse

from egr.geometry import ConstraintViolation, GeometryError, check_copies, pairwise_sq_dists, squared_distance
from egr.triangles import (
    build_five_point,
    case_b_certificate,
    chain_angle_defect,
    check_case_b,
    chain_on_sphere,
    five_point_sq,
    forced_sphere_radius,
    mono_sphere_witness,
    perturbed_chord,
    triangle_invariants,
)


def test_invariants_2_2_3():
    inv = triangle_invariants(2.0, 2.0, 3.0)
    assert inv.Delta == 63.0
    assert abs(inv.h - math.sqrt(63.0) / 2.0) < 1e-15
    assert inv.obtuse
    assert abs(inv.gamma - math.acos(-1.0 / 8.0)) < 1e-15
    assert abs(inv.circumradius - 12.0 / math.sqrt(63.0)) < 1e-15


def test_invariants_rejects_bad_input():
    with pytest.raises(GeometryError):
        triangle_invariants(3.0, 2.0, 1.0)  # not sorted
    with pytest.raises(ConstraintViolation):
        triangle_invariants(1.0, 1.0, 2.5)  # violates triangle inequality


def test_height_bound_and_chord_on_random_obtuse():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b, c = random_obtuse(rng)
        inv = triangle_invariants(a, b, c)
        assert inv.h < 2.0 * b
        eps = rng.uniform(1e-6, inv.h * (1.0 - 1e-9))
        chord = perturbed_chord(a, b, c, eps)
        assert chord.ok
        assert chord.ell < chord.bound


def test_perturbed_chord_2_2_3_1():
    chord = perturbed_chord(2.0, 2.0, 3.0, 1.0)
    assert abs(chord.ell - math.sqrt(59.0 / 3.75)) < 1e-14
    assert abs(chord.bound - 2.0 * math.sqrt(8.75)) < 1e-14
    assert chord.ok


def test_perturbed_chord_rejects_eps_at_h():
    inv = triangle_invariants(2.0, 2.0, 3.0)
    with pytest.raises(ConstraintViolation):
        perturbed_chord(2.0, 2.0, 3.0, inv.h)


def test_five_point_gadget_2_2_3_1():
    cfg = build_five_point(2.0, 2.0, 3.0, 1.0)
    want = five_point_sq(2.0, 2.0, 3.0, 1.0, cfg.notes["ell"])
    check_copies(cfg.points, [(0, 1, 2, 3, 4)], want, "five-point gadget")
    # Midpoint offset from the algebraic identity.
    assert abs(cfg.points[2, 1] - 2.1947) < 1e-3
    c = cfg.notes["c"]
    assert np.abs(pairwise_sq_dists(cfg.points) - want).max() <= 1e-9 * c * c
    assert cfg.labels == ["A", "B", "P", "M", "N"]
    assert len(cfg.named_copies["tetra_PMAB"]) == 1


def test_five_point_copies_cover_every_distance():
    cfg = build_five_point(2.0, 2.0, 3.0, 1.0)
    pairs = {frozenset(p) for tups in cfg.named_copies.values() for t in tups for p in itertools.combinations(t, 2)}
    assert len(pairs) == 10
    assert list(cfg.notes) == ["a", "b", "c", "eps", "ell"]
    assert five_point_sq(2.0, 2.0, 3.0, 1.0, cfg.notes["ell"])[2, 3] == cfg.notes["ell"] ** 2


def test_five_point_gadget_random_parameters():
    rng = np.random.default_rng(777)
    built = 0
    while built < 100:
        a, b, c = random_obtuse(rng)
        inv = triangle_invariants(a, b, c)
        eps = rng.uniform(0.05 * inv.h, 0.95 * inv.h)
        g = build_five_point(a, b, c, eps)
        want = five_point_sq(a, b, c, eps, g.notes["ell"])
        assert np.abs(pairwise_sq_dists(g.points) - want).max() <= 1e-9 * c * c
        built += 1


def test_five_point_rejects_acute():
    with pytest.raises(ConstraintViolation):
        build_five_point(1.0, 1.0, 1.2, 0.1)


def test_chain_golden_case():
    u = np.array([0.0, 0.0, 1.0])
    v = np.array([math.sqrt(3.0) / 2.0, 0.0, -0.5])
    chain = chain_on_sphere(np.zeros(3), 1.0, u, v, 1.0)
    assert chain.notes["k"] == 1
    assert abs(chain.notes["s_prime"] - 1.0) < 1e-12
    assert chain.points.shape == (3, 3)
    assert chain.named_copies["hops"] == [(0, 1), (1, 2)]
    for i, j in chain.named_copies["hops"]:
        assert abs(squared_distance(chain.points[i], chain.points[j]) - 1.0) < 1e-12
    assert chain_angle_defect(chain) < 1e-12


def test_chain_identical_endpoints():
    u = np.array([0.0, 0.0, 1.0])
    chain = chain_on_sphere(np.zeros(3), 1.0, u, u.copy(), 0.5)
    assert chain.notes["k"] == 0
    assert len(chain.points) == 1
    assert chain.notes["s_prime"] is None
    assert chain_angle_defect(chain) == 0.0


def test_chain_antipodal_endpoints():
    u = np.array([0.0, 0.0, 2.0])
    v = np.array([0.0, 0.0, -2.0])
    chain = chain_on_sphere(np.zeros(3), 2.0, u, v, 1.0)
    assert chain.notes["pre_hops"] == 1
    check_sphere_chain(chain, np.zeros(3))
    assert chain_angle_defect(chain) < 1e-10


def test_chain_rejects_bad_inputs():
    u = np.array([0.0, 0.0, 1.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(GeometryError):
        chain_on_sphere(np.zeros(3), 1.0, u, v, 2.5)  # step too long
    with pytest.raises(GeometryError):
        chain_on_sphere(np.zeros(3), 1.0, u, 2.0 * v, 0.5)  # V off sphere
    with pytest.raises(GeometryError):
        chain_on_sphere(np.zeros(2), 1.0, u[:2], v[:2], 0.5)  # ambient too small


def test_chain_random_instances():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        dim = int(rng.integers(3, 5))
        s = rng.uniform(0.5, 3.0)
        u = rng.standard_normal(dim)
        u = s * u / np.linalg.norm(u)
        v = rng.standard_normal(dim)
        v = s * v / np.linalg.norm(v)
        if np.linalg.norm(u - v) < 1e-3 or np.linalg.norm(u + v) > 2.0 * s - 1e-3:
            continue
        d = rng.uniform(0.1, 1.8) * s
        chain = chain_on_sphere(np.zeros(dim), s, u, v, d)
        check_sphere_chain(chain, np.zeros(dim))
        assert chain_angle_defect(chain) < 1e-10


def test_mono_sphere_witness_generic():
    r = math.sqrt(8.75)
    u = np.array([0.0, r, 0.0, 0.0])
    v = np.array([0.0, 0.0, r, 0.0])
    w = mono_sphere_witness(2.0, 2.0, 3.0, 1.0, u, v)
    assert len(w.named_copies["tetra_PMAB"]) == len(w.points[2:]) - 1
    assert w.notes["pre_hops"] == 0


def test_mono_sphere_witness_antipodal():
    r = math.sqrt(8.75)
    u = np.array([0.0, r, 0.0, 0.0])
    v = np.array([0.0, -r, 0.0, 0.0])
    w = mono_sphere_witness(2.0, 2.0, 3.0, 1.0, u, v)
    assert w.notes["pre_hops"] == 1
    assert len(w.named_copies["tetra_PMAB"]) >= 2


def test_mono_sphere_witness_rejects_off_sphere():
    u = np.array([0.0, 1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(GeometryError):
        mono_sphere_witness(2.0, 2.0, 3.0, 1.0, u, v)


def case_b_params():
    a, b, c, eps = 1.0, 1.0, 1.95, 0.4
    rad_s = math.sqrt(c * c - eps * eps / 4.0)
    return a, b, c, eps, rad_s


def test_case_b_certificate_example():
    a, b, c, eps, rad_s = case_b_params()
    cert = case_b_certificate(a, b, c, eps, rho=rad_s, delta=1e-3)
    check_case_b(cert)
    notes = cert.notes
    assert notes["branch"] == "on_sphere"
    assert abs(notes["rad_S"] - rad_s) < 1e-12
    assert notes["rad_W"] > math.sqrt(3.0 * c * c / 4.0 - eps * eps / 4.0)
    assert math.dist(cert.points[1], cert.points[2]) <= math.sqrt(2.0 * notes["rho"] * notes["delta"]) + 1e-12


def test_case_b_interior_branch():
    for lam in (1.0, 2.0**-40, 2.0**16):
        a, b, c, eps, rad_s = (lam * v for v in case_b_params())
        cert = case_b_certificate(a, b, c, eps, rho=0.99 * rad_s, delta=1e-4 * lam)
        check_case_b(cert)
        assert cert.notes["branch"] == "interior"
        op = math.dist(cert.points[0], cert.points[1])
        assert cert.notes["rho"] < op < cert.notes["rad_S"]


def test_case_b_named_violations():
    a, b, c, eps, rad_s = case_b_params()
    with pytest.raises(ConstraintViolation) as err:
        case_b_certificate(a, b, c, eps, rho=rad_s, delta=c * c)
    assert err.value.name == "delta1"
    # Thin triangle with h > c/2 so an eps between them reaches the c/2 gate.
    ct = math.sqrt(0.01 + 1.0 + 2.0 * 0.1 * 0.87)
    with pytest.raises(ConstraintViolation) as err:
        case_b_certificate(0.1, 1.0, ct, 0.6, rho=ct, delta=1e-3)
    assert err.value.name == "eps_c_half"
    with pytest.raises(ConstraintViolation) as err:
        case_b_certificate(1.0, 1.0, 1.3, 0.1, rho=1.2, delta=1e-3)
    assert err.value.name == "gamma_min"
    with pytest.raises(ConstraintViolation) as err:
        case_b_certificate(a, b, c, eps, rho=0.5, delta=1e-3)
    assert err.value.name == "rho_min"
    refusals = [
        ("eps_h", dict(eps=0.9, rho=rad_s, delta=1e-3)),  # h is about 0.867
        ("eps_h", dict(eps=0.0, rho=rad_s, delta=1e-3)),
        ("rho_max", dict(eps=eps, rho=1.1 * rad_s, delta=1e-3)),
        ("delta_positive", dict(eps=eps, rho=rad_s, delta=0.0)),
        ("delta_positive", dict(eps=eps, rho=rad_s, delta=-1e-3)),
        # Interior rho: (rad_S^2 - rho^2)/(2 rho) is about 0.0195, below delta1's 0.0299.
        ("delta2", dict(eps=eps, rho=0.99 * rad_s, delta=0.025)),
        # rho^2 = 2.9 leaves h^2/(2 rho) about 0.2205 below delta2's 0.2532.
        ("delta3", dict(eps=eps, rho=math.sqrt(2.9), delta=0.23)),
    ]
    for name, kw in refusals:
        with pytest.raises(ConstraintViolation) as err:
            case_b_certificate(a, b, c, **kw)
        assert err.value.name == name, kw


@pytest.mark.parametrize("rho, delta", [(math.nan, 1e-3), (None, math.nan), (math.inf, 1e-3), (None, math.inf)])
def test_case_b_refuses_non_finite_rho_and_delta(rho, delta):
    # NaN was refused only at the final inequality chain, as ineq_final
    a, b, c, eps, rad_s = case_b_params()
    rho = rad_s if rho is None else rho
    with pytest.raises(GeometryError, match="rho and delta must be finite") as err:
        case_b_certificate(a, b, c, eps, rho=rho, delta=delta)
    assert not isinstance(err.value, ConstraintViolation)


def case_b_both_branches():
    a, b, c, eps, rad_s = case_b_params()
    return [
        case_b_certificate(a, b, c, eps, rho=rad_s, delta=1e-3),
        case_b_certificate(a, b, c, eps, rho=0.99 * rad_s, delta=1e-4),
    ]


# Rows are O, P, Q, Z1, Z2; each move breaks the named claim first.
CASE_B_TAMPERS = {
    "oq_outside_rho": (2, (0.05, 0.0, 0.0), r"\|OQ\|\^2 = .* outside"),
    "qp_not_orthogonal": (1, (0.01, 0.0, 0.0), "OQ is not orthogonal to QP"),
    "pq_too_long": (1, (0.0, 0.1, 0.0), r"\|PQ\|\^2 = .* exceeds 2 rho delta"),
    "c_pair_broken": (4, (0.0, 0.0, 0.01), r"Z-P/Q pair \(4, 1\)"),
}


@pytest.mark.parametrize("tamper", sorted(CASE_B_TAMPERS))
def test_check_case_b_refuses_a_moved_point(tamper):
    row, shift, message = CASE_B_TAMPERS[tamper]
    for cert in case_b_both_branches():
        check_case_b(cert)
        cert.points[row] += shift
        with pytest.raises(GeometryError, match=message):
            check_case_b(cert)


def test_check_case_b_refuses_op_inside_rho():
    # P is pinned by Q, Z1 and Z2, so no single moved row reaches the
    # |OP| check; a rho note raised past |OP| does, with delta raised to
    # keep |OQ| = rho - delta.
    cert = case_b_both_branches()[1]
    o, p, q = cert.points[:3]
    rho = math.dist(o, p) + 1e-3
    cert.notes.update(rho=rho, delta=rho - math.dist(o, q))
    with pytest.raises(GeometryError, match=r"\|OP\|\^2 = .* outside"):
        check_case_b(cert)


def test_forced_sphere_radius_exceeds_floor():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = random_obtuse(rng)
        inv = triangle_invariants(a, b, c)
        if inv.gamma < 5.0 * math.pi / 6.0:
            continue
        eps = min(inv.h, c / 2.0) * 0.5
        rw = forced_sphere_radius(a, b, c, eps)
        assert rw > math.sqrt(3.0 * c * c / 4.0 - eps * eps / 4.0)
