"""Principal connections: neighbour transport, coboundary curvature against
the classical oracle, parallel transport/holonomy, and the holonomy-algebra
inclusion."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.errors import (ContextMismatchError, DegreeError, DomainError, LogBranchError,
                           RankDeficiencyError)
from sdgeom.connections import (BRACKET_SIGN, COBOUNDARY_SCALE,
                                TRANSPORT_SIGN, ConnectionData,
                                ambrose_singer_check,
                                curvature_classical_oracle,
                                curvature_coboundary, holonomy_log,
                                lie_closure, parallel_transport)
from sdgeom.connections import _simplex, _transport_product
from sdgeom.nil import NilElement, generic_offsets
from sdgeom.program import parse
from sdgeom.sampling import sample_box

from corpus import random_scalar_expr
from reference import NilPoint, pin_conventions
from wmatrix import (in_subalgebra_cone, omat_from_terms, omat_max_abs, omat_mul,
                     ref_coefficient_matrices, ref_inverse, ref_transport_neighbor)

J = np.array([[0.0, -1.0], [1.0, 0.0]])
VARS2 = ("x", "y")


def rotational_connection():
    """A = (-y dx + x dy) * J / 2: curvature J dx^dy, holonomy angle
    equal to minus the enclosed area."""
    half = 0.5
    Ax = [[ex.Const(0.0), ex.Mul(ex.Const(half), ex.Var("y"))],
          [ex.Mul(ex.Const(-half), ex.Var("y")), ex.Const(0.0)]]
    Ay = [[ex.Const(0.0), ex.Mul(ex.Const(-half), ex.Var("x"))],
          [ex.Mul(ex.Const(half), ex.Var("x")), ex.Const(0.0)]]
    return ConnectionData(2, [Ax, Ay], vars=VARS2)


def flat_connection():
    zero = [[ex.Const(0.0)] * 2 for _ in range(2)]
    return ConnectionData(2, [zero, zero], vars=VARS2)


def random_gl2_connection(seed, n=2):
    rng = np.random.default_rng(seed)
    vars = tuple(f"x{i+1}" for i in range(n))
    A = [[[random_scalar_expr(rng, vars) for _ in range(2)]
          for _ in range(2)] for _ in range(n)]
    return ConnectionData(n, A, vars=vars)


def circle_curve(cx, cy, r):
    t = ex.Var("t")
    two_pi = 2.0 * math.pi
    return [ex.Add(ex.Const(cx), ex.Mul(ex.Const(r),
                                        ex.Call("cos", ex.Mul(ex.Const(two_pi), t)))),
            ex.Add(ex.Const(cy), ex.Mul(ex.Const(r),
                                        ex.Call("sin", ex.Mul(ex.Const(two_pi), t))))]


def samples2(count=10, seed=0, lo=-1.0, hi=1.0):
    return sample_box([(lo, hi)] * 2, count, seed)


# -- neighbour transport ---------------------------------------------------------

def neighbour_pair(conn, base):
    """(a, b) with b infinitesimally displaced from a along generic offsets."""
    a = Point(base)
    return a, NilPoint(a, generic_offsets(1, conn.n)[0])


def test_transport_identity_on_equal_points():
    conn = rotational_connection()
    a = Point((0.3, 0.4))
    T = ref_transport_neighbor(conn, a, a)
    assert np.max(np.abs(ref_coefficient_matrices(T)[(0, 0)] - np.eye(2))) == 0.0
    assert omat_max_abs(T - np.eye(2)) <= 1e-15


def test_transport_inverse_is_exact_in_w():
    conn = rotational_connection()
    a, b = neighbour_pair(conn, (0.7, -0.2))
    prod = omat_mul(ref_transport_neighbor(conn, a, b), ref_transport_neighbor(conn, b, a))
    assert omat_max_abs(prod - np.eye(2)) <= 1e-15


def connection_form(conn, x, y):
    """Group-valued connection 1-form: omega(x, y) = g^-1 T(a, b) h for
    bundle points x = (a, g), y = (b, h)."""
    a, g = x
    b, h = y
    ginv = np.linalg.inv(np.asarray(g, dtype=float)).astype(object)
    return omat_mul(omat_mul(ginv, ref_transport_neighbor(conn, a, b)),
                    np.asarray(h, dtype=object))


def horizontal_lift(conn, x, b):
    """The fiber value over b making ((a,g),(b,h)) horizontal: h = T(b,a) g."""
    a, g = x
    return omat_mul(ref_transport_neighbor(conn, b, a), np.asarray(g, dtype=object))


def holonomy_distribution_flatness(conn, h_basis, x, y, tol=1e-9):
    """Flatness of the bundle pair (x, y) for the holonomy distribution of
    the subgroup with Lie algebra span(h_basis): omega(x, y) in the H-cone."""
    return in_subalgebra_cone(connection_form(conn, x, y), h_basis, tol=tol)


def test_connection_form_identity_on_equal_bundle_points():
    conn = rotational_connection()
    a = Point((0.1, 0.2))
    g = np.array([[0.6, -0.8], [0.8, 0.6]])
    om = connection_form(conn, (a, g), (a, g))
    assert omat_max_abs(om - np.eye(2)) <= 1e-12


def test_horizontal_lift_makes_connection_form_identity():
    conn = rotational_connection()
    a, b = neighbour_pair(conn, (0.4, 0.9))
    g = np.eye(2)
    h = horizontal_lift(conn, (a, g), b)
    om = connection_form(conn, (a, g), (b, h))
    assert omat_max_abs(om - np.eye(2)) <= 1e-12


# -- curvature -------------------------------------------------------------------

def test_flat_connection_zero_curvature():
    conn = flat_connection()
    for p in samples2():
        for F in curvature_coboundary(conn, p).values():
            assert np.max(np.abs(F)) <= 1e-12


def test_convention_pinning():
    scale, sign = pin_conventions(random_gl2_connection(3), samples2(6, seed=2))
    assert abs(scale - COBOUNDARY_SCALE) <= 1e-9
    assert sign == BRACKET_SIGN


def test_abelian_coboundary_matches_entrywise_derivative():
    # for a connection with commuting values, the coboundary curvature is
    # exactly the scaled entrywise derivative of A: measured scale constant
    conn = rotational_connection()
    for p in samples2(6, seed=4):
        F = curvature_coboundary(conn, p)[(1, 2)]
        # dA = (d(x)/dx + d(y)/dy antisymmetrized) = 2 * (J/2) = J
        assert np.max(np.abs(F - COBOUNDARY_SCALE * J)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_curvature_matches_classical_oracle(seed):
    conn = random_gl2_connection(seed)
    for p in samples2(10, seed=seed + 10):
        cob = curvature_coboundary(conn, p)
        oracle = curvature_classical_oracle(conn, p)
        for key, Fc in cob.items():
            want = COBOUNDARY_SCALE * oracle[key]
            assert np.max(np.abs(Fc - want)) <= 1e-9


def test_curvature_three_dimensional_chart():
    conn = random_gl2_connection(11, n=3)
    p = Point((0.2, -0.5, 0.8))
    cob = curvature_coboundary(conn, p)
    assert set(cob) == {(1, 2), (1, 3), (2, 3)}
    oracle = curvature_classical_oracle(conn, p)
    for key in cob:
        assert np.max(np.abs(cob[key] - COBOUNDARY_SCALE * oracle[key])) <= 1e-9


# -- parallel transport and holonomy ----------------------------------------------

def test_flat_connection_identity_holonomy():
    conn = flat_connection()
    g = parallel_transport(conn, circle_curve(0.0, 0.0, 1.0), 0.0, 1.0, 500)
    assert np.max(np.abs(g - np.eye(2))) <= 1e-12


@pytest.mark.parametrize("radius", [0.5, 1.0])
def test_holonomy_angle_equals_minus_area(radius):
    conn = rotational_connection()
    g = parallel_transport(conn, circle_curve(0.0, 0.0, radius),
                           0.0, 1.0, 10_000)
    L = holonomy_log(g)
    angle = L[1, 0]
    area = math.pi * radius * radius
    assert abs(angle - (-area)) <= 1e-3 or abs(angle - (2 * math.pi - area)) <= 1e-3


# A counter-clockwise circle of radius r about p has the holonomy
# g = I - pi r^2 F(p) + O(r^3), so E(r) = (g - I)/(pi r^2) is -F(p) up to
# O(r), and Richardson's 2 E(r/2) - E(r) up to O(r^2).  At r = 0.01 and 400
# RK4 steps its distance from -F, F the coboundary over COBOUNDARY_SCALE,
# measured 7.9e-5 (gl2) to 1.5e-4 (so3), 2e-5 to 3.6e-5 at r = 0.005; the
# bound leaves a margin of 3x.  The other sign, or the other scale, misses
# by |F| ~ 1 or more.
GL2_SOURCE = "dim 2\nvar x y\nconn A = [x*dy, y*dx; 0*dx, x*dx]\n"
SO3_SOURCE = ("dim 2\nvar x y\nconn A = [0*dx, (-y)*dx + (0.4*x)*dy, (0.5)*dx + (-0.2)*dy; "
              "(y)*dx + (-0.4*x)*dy, 0*dx, (-0.3*x)*dx + (y*y)*dy; "
              "(-0.5)*dx + (0.2)*dy, (0.3*x)*dx + (-y*y)*dy, 0*dx]\n")


@pytest.mark.parametrize("source", [GL2_SOURCE, SO3_SOURCE], ids=["gl2", "so3"])
@pytest.mark.parametrize("p", [(0.3, 0.7), (-0.4, 0.2)])
def test_small_loop_holonomy_is_minus_the_curvature(source, p):
    conn = parse(source).conns["A"]
    F = curvature_coboundary(conn, Point(p))[(1, 2)] / COBOUNDARY_SCALE

    def E(r):
        g = parallel_transport(conn, circle_curve(*p, r), 0.0, 1.0, 400)
        return (g - np.eye(conn.m)) / (math.pi * r * r)

    r = 0.01
    assert np.max(np.abs(2.0 * E(r / 2) - E(r) + F)) <= 5e-4
    assert np.max(np.abs(F)) >= 1.0


def test_transport_needs_a_positive_step_count():
    with pytest.raises(ValueError, match="^steps must be positive$"):
        parallel_transport(rotational_connection(), circle_curve(0.0, 0.0, 1.0), 0.0, 1.0, 0)


@pytest.mark.parametrize("basepoint, steps, error, message", [
    ((0.1, 0.2), 0, ValueError, "steps must be positive"),
    ((0.1, 0.2, 0.3), 50, ContextMismatchError, "curve not in the connection's chart"),
], ids=["no-steps", "basepoint-off-chart"])
def test_ambrose_singer_argument_errors(basepoint, steps, error, message):
    # the errors of the segment transports from the basepoint
    loops = [(circle_curve(0.0, 0.0, 0.5), 0.0, 1.0)]
    with pytest.raises(error, match=f"^{message}$"):
        ambrose_singer_check(rotational_connection(), loops, samples2(3), Point(basepoint),
                             steps=steps, tol=1e-6)


def test_holonomy_angle_mod_2pi_radius_two():
    # area 4*pi wraps: the holonomy element equals rotation by -4*pi = id
    conn = rotational_connection()
    g = parallel_transport(conn, circle_curve(0.0, 0.0, 2.0),
                           0.0, 1.0, 10_000)
    area = 4.0 * math.pi
    want = np.array([[math.cos(area), math.sin(area)],
                     [-math.sin(area), math.cos(area)]])
    assert np.max(np.abs(g - want)) <= 1e-3


def test_holonomy_log_branch_point():
    # rotation by exactly pi has a stable principal log
    g = np.array([[-1.0, 0.0], [0.0, -1.0]])
    L = holonomy_log(g)
    assert abs(abs(L[1, 0]) - math.pi) <= 1e-12
    g3 = np.diag([-1.0, -1.0, 1.0])
    L3 = holonomy_log(g3)
    assert np.max(np.abs(L3 + L3.T)) <= 1e-12  # skew
    assert abs(np.linalg.norm(L3) / math.sqrt(2.0) - math.pi) <= 1e-9


def test_so3_log_of_the_identity_is_zero():
    assert holonomy_log(np.eye(3)).tolist() == np.zeros((3, 3)).tolist()


@pytest.mark.parametrize("g, message", [
    (np.diag([-1.0, -2.0]), "holonomy has no real principal logarithm"),
    (np.array([[math.nan, 0.0], [0.0, 1.0]]), "array must not contain infs or NaNs"),
    # logm of an infinite entry did not return
    (np.array([[math.inf, 0.0], [0.0, 1.0]]), "array must not contain infs or NaNs"),
], ids=["negative-eigenvalues", "nan", "inf"])
def test_holonomy_log_without_a_real_principal_branch(g, message):
    with pytest.raises(LogBranchError, match=f"^{message}$"):
        holonomy_log(g)


@pytest.mark.parametrize("s", [1e-17, -1e-17, 0.0, -0.0, 5e-13])
def test_so2_log_at_the_branch_point_is_minus_pi(s):
    # a rotation by +-pi: the sign of g[1, 0] is roundoff and must not matter
    g = np.array([[-1.0, -s], [s, -1.0]])
    assert holonomy_log(g).tolist() == [[0.0, math.pi], [-math.pi, 0.0]]


def test_so2_log_angle_near_pi_is_kept():
    for angle in (math.pi - 1e-9, -math.pi + 1e-9):
        g = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        assert abs(holonomy_log(g)[1, 0] - angle) <= 1e-15


def test_nan_coefficient_is_not_in_the_subalgebra_cone():
    e = NilElement(1, 1, {(0, 0): 1.0, (1, 1): float("nan")})
    g = np.array([[e, 0.0], [0.0, 1.0]], dtype=object)
    assert in_subalgebra_cone(g, [J]) is False


def test_transport_reversed_curve_inverts():
    conn = rotational_connection()
    curve = circle_curve(0.2, -0.1, 0.4)
    g = parallel_transport(conn, curve, 0.0, 1.0, 4000)
    ginv = parallel_transport(conn, curve, 1.0, 0.0, 4000)
    assert np.max(np.abs(g @ ginv - np.eye(2))) <= 1e-9


def rk4_reference(conn, curve_exprs, t0, t1, steps):
    """Sequential RK4 on g' = -M(t) g, one step at a time."""
    c_fn = ex.compile_w(curve_exprs, ("t",))
    cdot_fn = ex.compile_w([ex.diff(c, "t") for c in curve_exprs], ("t",))
    a_fns = [ex.compile_w([e for row in Ai for e in row], conn.vars) for Ai in conn.A]
    m = conn.m

    def rhs(t, g):
        x = c_fn(t)
        cdot = cdot_fn(t)
        acc = np.zeros((m, m))
        for i in range(conn.n):
            if cdot[i]:
                acc += np.array(a_fns[i](*x)).reshape(m, m) * cdot[i]
        return -acc @ g

    g = np.eye(m)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, g)
        k2 = rhs(t + 0.5 * h, g + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, g + 0.5 * h * k2)
        k4 = rhs(t + h, g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return g


def ref_coboundary(conn, p):
    """Degree-2 coefficients of T(x,y) T(y,z) T(z,x), scaled, with A
    evaluated at each of x, y and z."""
    n, m = conn.n, conn.m
    u, v = generic_offsets(2, n)
    x = Point(p.coords)
    y, z = NilPoint(x, u), NilPoint(x, v)
    total = omat_mul(omat_mul(ref_transport_neighbor(conn, x, y),
                              ref_transport_neighbor(conn, y, z)),
                     ref_transport_neighbor(conn, z, x))
    out = {(i, j): np.zeros((m, m)) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    for (rmask, cmask), mat in ref_coefficient_matrices(total).items():
        if rmask == 0b11:
            i, j = [b + 1 for b in range(n) if cmask & (1 << b)]
            out[(i, j)] = mat * COBOUNDARY_SCALE
    return out


def assert_terms_close(got, want, rel):
    """Two term maps agree coefficient by coefficient within rel * max(1,
    largest |coefficient|); a missing monomial reads zero."""
    scale = max([1.0] + [np.max(np.abs(a)) for a in want.values()])
    for key in got.keys() | want.keys():
        a = got.get(key, 0.0)
        b = want.get(key, 0.0)
        assert np.max(np.abs(a - b)) <= rel * scale, key


def _load_perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smooth_connection():
    """gl(2)-valued A on R^2 whose entries use exp, sqrt and a quotient."""
    x, y = ex.Var("x"), ex.Var("y")
    two = ex.Const(2.0)
    A1 = [[ex.Call("exp", ex.Mul(x, y)), ex.Div(x, ex.Add(two, y))],
          [ex.Call("sqrt", ex.Add(two, ex.Mul(x, x))), ex.Mul(ex.Const(-0.4), y)]]
    A2 = [[ex.Div(ex.Const(1.0), ex.Add(two, x)), ex.Call("exp", ex.Neg(x))],
          [ex.Mul(y, ex.Call("sqrt", ex.Add(two, y))), ex.Sub(x, y)]]
    return ConnectionData(2, [A1, A2], vars=VARS2)


def reference_cases():
    """(connection, batch-16 sample points): perfbench's so2, so3 and gl2
    connections at seeds 1-5, and `smooth_connection`."""
    gen = _load_perfbench_gen()
    cases = []
    for seed in range(1, 6):
        sources, _ = gen.checks_sparse(seed)
        for name in ("so2.sdg", "so3.sdg", "gl2.sdg"):
            conn = parse(sources[name]).conns["A"]
            cases.append((conn, sample_box([(-1.0, 1.0)] * conn.n, 16, seed)))
    cases.append((smooth_connection(), samples2(16, seed=9)))
    return cases


def test_coboundary_agrees_with_the_object_matrix_reference():
    for conn, points in reference_cases():
        for p in points:
            got, want = curvature_coboundary(conn, p), ref_coboundary(conn, p)
            assert got.keys() == want.keys()
            for key, F in want.items():
                assert np.max(np.abs(got[key] - F)) <= 1e-14 * max(1.0, np.max(np.abs(F)))


def w_path_coboundary(conn, p):
    """curvature_coboundary with A at y = x + u and at z = x + v evaluated
    in W by compile_w, its terms placed over the monomial basis one by one,
    and the stacked product of the library."""
    n, m = conn.n, conn.m
    w = _simplex(n)
    x = p.coords
    A = np.zeros((3, len(w.index), n * m * m))
    A[0, 0] = conn._a_w(*x)
    for k, offset in enumerate(generic_offsets(2, n), start=1):
        for j, e in enumerate(conn._a_w(*[di + xi for di, xi in zip(offset, x)])):
            if isinstance(e, NilElement):
                for key, c in e.terms.items():
                    A[k, w.index[key], j] = c
            elif e:
                A[k, 0, j] = e
    G = w.displacement[:, None] @ A[:, :1 + 2 * n].reshape(3, 1 + 2 * n, n, m * m)
    L = G[:, 0].reshape(3, 2 * n, m, m)
    Q = (G[:, 1:][:, w.left, w.right] * w.sign[..., 0]).sum(axis=1).reshape(3, -1, m, m)
    return dict(zip(w.faces, _transport_product(w, L, Q)[1] * COBOUNDARY_SCALE))


def test_coboundary_is_the_w_path_byte_for_byte():
    # A at y as a 1-jet fills the rows its value in W there fills
    for conn, points in reference_cases():
        for p in points:
            got, want = curvature_coboundary(conn, p), w_path_coboundary(conn, p)
            assert got.keys() == want.keys()
            assert all(got[key].tobytes() == F.tobytes() for key, F in want.items())


def test_value_at_z_by_the_vertex_swap_is_the_direct_value():
    for conn, points in reference_cases():
        u, v = generic_offsets(2, conn.n)
        for p in points[:4]:
            x = Point(p.coords)
            at_y = conn._a_w(*NilPoint(x, u).coords_w())
            at_z = conn._a_w(*NilPoint(x, v).coords_w())
            for e, want in zip(at_y, at_z):
                got = e.permute_rows((2, 1)) if isinstance(e, NilElement) else e
                assert got == want


def test_stacked_transport_product_agrees_with_group_element_products():
    # random transports I + N in W(2, n), N with every degree-1 and degree-2
    # monomial, multiplied as object arrays and through the tables
    rng = np.random.default_rng(15)
    for n in range(2, 7):
        w = _simplex(n)
        basis = sorted(w.index, key=w.index.get)
        deg1, deg2 = basis[1:1 + 2 * n], basis[1 + 2 * n:]
        for m in range(1, 4):
            for factors in (2, 3, 4):
                L = rng.standard_normal((factors, len(deg1), m, m))
                Q = rng.standard_normal((factors, len(deg2), m, m))
                want = None
                for Lk, Qk in zip(L, Q):
                    terms = {(0, 0): np.eye(m), **dict(zip(deg1, Lk)), **dict(zip(deg2, Qk))}
                    g = omat_from_terms(terms, 2, n)
                    want = g if want is None else omat_mul(want, g)
                linear, total = _transport_product(w, L, Q)
                got = {(0, 0): np.eye(m), **dict(zip(deg1, linear)), **dict(zip(deg2, total))}
                assert_terms_close(got, ref_coefficient_matrices(want), 1e-15)


def test_simplex_tables_grow_as_n_squared():
    # no table of W(2, n) is dense in pairs or triples of basis monomials,
    # whose number grows as n^4 and n^6
    for n in range(1, 17):
        for name, table in vars(_simplex(n)).items():
            size = table.size if isinstance(table, np.ndarray) else len(table)
            assert size <= 6 * n * n, (n, name, size)


# A has the degree-1 coefficient 1e300*1e300 = inf at y = x + u, and at
# x = 0.5 the value inf itself
NON_FINITE_CONN = """\
dim 2
var x y
conn A = [(x*1e300*1e300)*dx, 0*dx; 0*dx, 0*dx]
"""


@pytest.mark.parametrize("at, where", [
    ((0.0, 0.0), "in the first neighbourhood of (0.0, 0.0)"),
    ((0.5, 0.25), "at (0.5, 0.25)"),
], ids=["degree-1-part", "value"])
def test_coboundary_non_finite_connection_is_a_domain_error(at, where):
    # a structural zero times inf is nan, so the product would hide where A
    # fails: A is checked first, and the error names the point
    conn = parse(NON_FINITE_CONN).conns["A"]
    with pytest.raises(DomainError) as err:
        curvature_coboundary(conn, Point(at))
    assert str(err.value) == f"non-finite connection value {where}"


HUGE_CONN = ("dim 2\nvar x y\n"
             "conn A = [0*dx, (1e160*y)*dx + (1e160*x)*dy; (-1e160*y)*dx, 0*dx]\n")


@pytest.mark.parametrize("curvature", [curvature_coboundary, curvature_classical_oracle])
def test_curvature_overflow_is_a_domain_error(curvature):
    # every value of A is finite, but the coboundary's pair products and the
    # oracle's bracket overflow: both returned inf entries
    conn = parse(HUGE_CONN).conns["A"]
    with pytest.raises(DomainError) as err:
        curvature(conn, Point((0.3, 0.7)))
    assert str(err.value) == "non-finite curvature at (0.3, 0.7)"


def so3_connection():
    """Skew-symmetric A_i with polynomial and trigonometric entries on R^3."""
    x, y, z = (ex.Var(v) for v in ("x", "y", "z"))
    entries = [(ex.Mul(ex.Const(0.7), y), ex.Call("sin", z), ex.Mul(x, z)),
               (ex.Const(0.4), ex.Mul(ex.Const(-1.1), ex.Mul(x, y)), ex.Call("cos", x)),
               (ex.Mul(y, z), ex.Const(-0.3), ex.Mul(ex.Const(0.9), x))]
    A = []
    for a, b, c in entries:
        zero = ex.Const(0.0)
        A.append([[zero, a, b], [ex.Neg(a), zero, c], [ex.Neg(b), ex.Neg(c), zero]])
    return ConnectionData(3, A, vars=("x", "y", "z"))


def so3_loop():
    t = ex.Var("t")
    two_pi_t = ex.Mul(ex.Const(2.0 * math.pi), t)
    return [ex.Call("cos", two_pi_t), ex.Call("sin", two_pi_t),
            ex.Mul(ex.Const(0.3), ex.Call("sin", ex.Mul(ex.Const(2.0), two_pi_t)))]


def transport_cases():
    t = ex.Var("t")
    # an open curve along which the second coordinate is constant
    segment = [ex.Add(ex.Const(0.3), ex.Mul(ex.Const(0.5), t)), ex.Const(-0.2)]
    gl2 = random_gl2_connection(11)
    return {
        "gl2-open-constant-coordinate": (gl2, segment, 0.0, 1.0, 300),
        "so3": (so3_connection(), so3_loop(), 0.0, 1.0, 25),
        "reversed-interval": (rotational_connection(),
                              circle_curve(0.2, -0.1, 0.4), 1.0, 0.0, 200),
        "one-step": (gl2, circle_curve(0.1, 0.0, 0.5), 0.0, 0.3, 1),
        "odd-steps-across-blocks": (gl2, circle_curve(0.1, 0.0, 0.5), 0.0, 1.0, 1025),
    }


@pytest.mark.parametrize("case", sorted(transport_cases()))
def test_transport_agrees_with_sequential_rk4(case):
    conn, curve, t0, t1, steps = transport_cases()[case]
    g = parallel_transport(conn, curve, t0, t1, steps)
    want = rk4_reference(conn, curve, t0, t1, steps)
    assert np.max(np.abs(g - want)) <= 1e-12


def test_transport_non_finite_connection_is_a_domain_error():
    # ln(x) on a circle through x <= 0
    zero = ex.Const(0.0)
    log_x = ex.Call("ln", ex.Var("x"))
    conn = ConnectionData(2, [
        [[zero, zero], [zero, zero]], [[log_x, zero], [zero, zero]]], vars=VARS2)
    with pytest.raises(DomainError):
        parallel_transport(conn, circle_curve(0.0, 0.0, 1.0), 0.0, 1.0, 100)
    # every stage value is finite, but the RK4 products overflow
    huge = parse(HUGE_CONN).conns["A"]
    with pytest.raises(DomainError, match=r"^parallel transport overflows for t from 0\.0 to "):
        parallel_transport(huge, circle_curve(0.0, 0.0, 0.5), 0.0, 1.0, 50)
    # A_2 is not needed where c_2' = 0, so a segment along x at y = const
    # through x <= 0 is fine
    t = ex.Var("t")
    g = parallel_transport(conn, [ex.Sub(t, ex.Const(0.5)), ex.Const(0.3)],
                           0.0, 1.0, 100)
    assert np.array_equal(g, np.eye(2))


MASKED = """\
dim 2
var x y
vector c = (0.5, x)
conn A = [ln(x - 1)*dx + y*dy, 0*dx; 0*dx, 0*dx]
conn B = [(ln(0-1)*y)*dx + y*dy, 0*dx; 0*dx, 0*dx]
"""


def test_transport_leaves_out_an_entry_undefined_through_its_variables():
    # on c(t) = (0.5, t), c_1' = 0: A_1 = ln(x - 1) is left out, although it
    # is undefined at every point of the curve
    prog = parse(MASKED)
    curve = [ex.rename(e, {"x": "t"}) for e in prog.vectors["c"]]
    g = parallel_transport(prog.conns["A"], curve, 0.0, 1.0, 100)
    assert np.all(np.isfinite(g))
    # ln(0 - 1) has no variable: it is undefined at every sample at once,
    # and raises even where it is left out, as the curvature does
    with pytest.raises(DomainError, match=r"^ln of -1\.0$"):
        parallel_transport(prog.conns["B"], curve, 0.0, 1.0, 100)
    with pytest.raises(DomainError):
        curvature_coboundary(prog.conns["B"], Point((0.3, 0.7)))


def test_transport_curve_must_match_chart_dimension():
    with pytest.raises(ContextMismatchError):
        parallel_transport(rotational_connection(), [ex.Var("t")], 0.0, 1.0, 10)


# -- holonomy algebra --------------------------------------------------------------

def ten_loops():
    loops = []
    rng = np.random.default_rng(5)
    for _ in range(10):
        cx, cy = rng.uniform(-0.3, 0.3, size=2)
        r = float(rng.uniform(0.2, 0.8))
        loops.append((circle_curve(cx, cy, r), 0.0, 1.0))
    return loops


def test_ambrose_singer_inclusion():
    conn = rotational_connection()
    ok, dim_h, resid = ambrose_singer_check(
        conn, ten_loops(), samples2(5, seed=6), Point((0.0, 0.0)),
        steps=2000, tol=1e-6)
    assert ok
    assert dim_h == 1
    assert resid <= 1e-6


def reducible_so3_check(basepoint):
    # the gauge transform of y E_z dx by the rotation about the x-axis
    # through angle x: non-abelian values, a 1-dimensional holonomy algebra
    conn = parse("dim 2\nvar x y\nconn A = [0*dx, (-y*cos(x))*dx, (-y*sin(x))*dx; "
                 "(y*cos(x))*dx, 0*dx, (1)*dx; (y*sin(x))*dx, (-1)*dx, 0*dx]\n").conns["A"]
    return ambrose_singer_check(
        conn, [(circle_curve(-0.5, 0.0, 0.2), 0.0, 1.0)],
        sample_box([(-1.0, 1.0)] * 2, 8, 1), Point(basepoint), steps=500, tol=1e-6)


def test_ambrose_singer_on_a_reducible_so3_connection():
    # curvature conjugated the wrong way round spans all of so(3), and every
    # loop then passes
    ok, dim_h, resid = reducible_so3_check((-0.3, 0.0))
    assert dim_h == 1
    assert ok
    assert resid <= 1e-6


def test_ambrose_singer_brings_each_loop_to_the_basepoint():
    # the circle starts at (-0.3, 0); compared at (-0.8, 0.5) without being
    # brought there, or brought there the wrong way round, its holonomy log
    # is off the algebra by 0.085 (0.149)
    ok, dim_h, resid = reducible_so3_check((-0.8, 0.5))
    assert dim_h == 1
    assert ok
    assert resid <= 1e-6


def test_lie_closure_of_so3_generators():
    Lx = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    Ly = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
    basis = lie_closure([Lx, Ly])
    assert len(basis) == 3
    # a zero matrix spans nothing
    assert len(lie_closure([np.zeros((3, 3)), Lx])) == 1


def test_holonomy_distribution_flatness_in_w():
    # connection values lie in so(2) = span{J}, so every neighbour pair is
    # flat for the holonomy distribution of the full structure group
    conn = rotational_connection()
    h_basis = [J]
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = neighbour_pair(conn, rng.uniform(-0.5, 0.5, size=2))
        g = np.eye(2)
        assert holonomy_distribution_flatness(conn, h_basis, (a, g), (b, g))
    # against a basis orthogonal to so(2) the same pairs are not flat
    other = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    a, b = neighbour_pair(conn, (0.3, 0.4))
    assert not holonomy_distribution_flatness(conn, other, (a, np.eye(2)),
                                              (b, np.eye(2)))


def test_three_of_four_factor_argument_in_w():
    # the cocycle product of the three transports around an infinitesimal
    # 2-simplex stays in the H-cone when each factor does (H = so(2)); the
    # product and its truncated log are computed exactly in W arithmetic
    conn = rotational_connection()
    h_basis = [J]
    x = Point((0.15, -0.35))
    y, z = (NilPoint(x, offsets) for offsets in generic_offsets(2, conn.n))
    f_xy, f_yz, f_zx = (ref_transport_neighbor(conn, a, b) for a, b in ((x, y), (y, z), (z, x)))
    # each factor individually is an H-element
    for f in (f_xy, f_yz, f_zx):
        assert in_subalgebra_cone(f, h_basis)
    # hence so is the coboundary: three factors force the fourth
    total = omat_mul(omat_mul(f_xy, f_yz), f_zx)
    assert in_subalgebra_cone(total, h_basis)
    inferred = omat_mul(f_yz, f_zx)  # = f_xy^{-1} * total
    assert in_subalgebra_cone(inferred, h_basis)


def test_group_element_inverse_exact_in_w():
    conn = rotational_connection()
    a, offs = neighbour_pair(conn, (0.3, 0.6))
    T = ref_transport_neighbor(conn, a, offs)
    prod = ref_coefficient_matrices(omat_mul(T, ref_inverse(T)))
    assert np.max(np.abs(prod.pop((0, 0)) - np.eye(2))) <= 1e-15
    for mat in prod.values():
        assert np.max(np.abs(mat)) <= 1e-15


def test_gauge_conjugation_of_curvature():
    # conjugating A by a constant gauge conjugates the coboundary curvature
    conn = random_gl2_connection(21)
    gmat = np.array([[1.0, 0.5], [-0.3, 1.2]])
    ginv = np.linalg.inv(gmat)
    A2 = []
    for Ai in conn.A:
        Anum = [[e for e in row] for row in Ai]
        # build g^{-1} A g symbolically entry by entry
        rows = []
        for r in range(2):
            row = []
            for c in range(2):
                term = ex.Const(0.0)
                for u in range(2):
                    for v in range(2):
                        term = ex.Add(term, ex.Mul(
                            ex.Const(float(ginv[r, u] * gmat[v, c])),
                            Anum[u][v]))
                row.append(term)
            rows.append(row)
        A2.append(rows)
    conj = ConnectionData(conn.n, A2, vars=conn.vars)
    for p in samples2(5, seed=22):
        F1 = curvature_coboundary(conn, p)[(1, 2)]
        F2 = curvature_coboundary(conj, p)[(1, 2)]
        assert np.max(np.abs(F2 - ginv @ F1 @ gmat)) <= 1e-9


def test_transport_sign_constant_is_frozen():
    assert TRANSPORT_SIGN == 1.0
    assert COBOUNDARY_SCALE == 0.5
    assert BRACKET_SIGN == 1.0


def test_a_connection_needs_one_matrix_per_dimension():
    zero = [[ex.Const(0.0)] * 2 for _ in range(2)]
    with pytest.raises(DegreeError, match="^need one matrix of coefficients per dimension$"):
        ConnectionData(2, [zero], vars=VARS2)
    # m is read from A: a 0-dimensional chart has no matrices, and m = 0
    assert ConnectionData(0, []).m == 0


@pytest.mark.parametrize("A", [
    [[[0.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0]], [[0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0]]],
    [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
], ids=["ragged", "one-row", "sizes-differ", "wide"])
def test_a_connection_needs_square_matrices_of_one_size(A):
    # m is read from A: a row or a matrix of another length is an error,
    # not entries left out
    with pytest.raises(DegreeError) as err:
        ConnectionData(2, A, vars=VARS2)
    assert str(err.value) == "the matrices of coefficients must be square and of one size"


def test_coboundary_rejects_a_degree_one_part():
    # the degree-1 part is (A(x) - A(y)'s constant) u, zero exactly when the
    # 1-jet at y starts at A(x): shift that constant, its first n m m = 8
    # values, as a faulty jet would
    conn = rotational_connection()
    jet = conn._a_jet
    conn._a_jet = lambda *x: [c + 1e-3 if i < 8 else c for i, c in enumerate(jet(*x))]
    with pytest.raises(RankDeficiencyError, match="^coboundary has unexpected degree-1 part$"):
        curvature_coboundary(conn, Point((0.3, 0.7)))

