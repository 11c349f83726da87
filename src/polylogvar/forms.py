"""The explicit de Rham basis on the unit cube and its exact identities.

The basis n-forms are, with x = z*t_1*...*t_n and E_r the Eulerian
polynomials,

    omega(n, 0) = dt_1...dt_n
    omega(n, k) = z * E_{n-k}(x) / (1 - x)^{n-k+1} dt_1...dt_n   (1 <= k <= n)

They depend on the cube only through tau = t_1*...*t_n, so their
coefficients are polynomials in the two variables (z, tau): variable 0 is z
and variable 1 is tau, whatever n is (RationalForm says why every identity
decided there holds in the cube coordinates).  Only the printed form expands
tau^d to t1^d*...*tn^d: ``RationalForm.__repr__`` hands ``MPoly.show`` the
names t1, ..., tn for tau.  Derivative identities are decided exactly, by
polynomial cross-multiplication, never by sampling: the k = 1 relation holds
only up to an exact term, and the symbolic layer must keep that distinction
sharp.

The one numerical operation is the period identity: integrate_cube sums
omega(n, k) over the cube as the one-dimensional integral in
s = -log(t_1...t_n) that it equals exactly (proof in its docstring), by a
double-exponential trapezoid rule in float64 on the math module, each node
evaluated once across the halvings of the step.
"""

import math
from collections import namedtuple

import mpmath as mp

from .errors import DomainError, IntegrationError
from .exact import eulerian
from .mpoly import MPoly, rational_functions_equal


class RationalForm(namedtuple("RationalForm", "n num den")):
    """(num/den) * dt_1...dt_n, with num and den exact polynomials in
    (z, tau), tau = t_1...t_n: two exponents a monomial, not n + 1.

    Why an identity decided in (z, tau) holds on the cube.  For n >= 1 let
    phi: Q[z, tau] -> Q[z, t_1..t_n] send tau to t_1...t_n and fix z.
    - phi is an injective ring map: it sends z^a tau^d to z^a t_1^d...t_n^d,
      and distinct (a, d) give distinct monomials.  So num1 den2 - num2 den1
      is 0 exactly when its image is, and cross-multiplication decides the
      same equalities on either side.
    - phi commutes with d/dz, since phi(tau) does not involve z.
    Hence d_dz, and every identity built from sums, products and d/dz,
    gives in (z, tau) the preimage of what it gives in the cube
    coordinates.  At n = 0, tau is the empty product 1; the only
    form there is omega(0, 0) = 1, and no identity is decided at n = 0.
    """

    __slots__ = ()

    def __new__(cls, n, num, den):
        if den.is_zero():
            raise ValueError("denominator is identically zero")
        if n < 0 or num.nvars != 2 or den.nvars != 2:
            raise ValueError("need n >= 0 and coefficient polynomials in "
                             "the variables (z, tau)")
        return super().__new__(cls, n, num, den)

    def d_dz(self):
        """z-derivative by the quotient rule, (p'q - pq') / q^2, as a new
        RationalForm.  It is not reduced: every identity is decided by
        cross-multiplication, which needs no common factor cancelled."""
        p, q = self.num, self.den
        return RationalForm(self.n, p.diff(0) * q - p * q.diff(0), q * q)

    def __repr__(self):
        """The form in the cube coordinates: z for variable 0 and tau^d
        printed as t1^d*...*tn^d."""
        tag = "".join(f" dt{i}" for i in range(1, self.n + 1)) or " (0-form)"
        names = [("z",), tuple(f"t{i}" for i in range(1, self.n + 1))]
        return f"({self.num.show(names)}) / ({self.den.show(names)})" + tag


def omega(n, k):
    """The k-th basis form in weight n, written straight into monomials in
    (z, tau).

    With x = z tau, the monomial z^a x^d is z^(a + d) tau^d.  So, with
    r = n - k and e = r + 1, the numerator z E_r(x) = sum_d E_r[d] z x^d is
    sum_d E_r[d] at (d + 1, d), and the denominator
    (1 - x)^e = sum_i (-1)^i C(e, i) x^i, by the binomial theorem, is
    sum_i (-1)^i C(e, i) at (i, i).  Every coefficient is an integer."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return RationalForm(n, MPoly.const(2, 1), MPoly.const(2, 1))
    e = n - k + 1
    num = MPoly(2, {(d + 1, d): c
                    for (d,), c in eulerian(n - k).terms.items()})
    den = MPoly(2, {(i, i): (-1) ** i * math.comb(e, i) for i in range(e + 1)})
    return RationalForm(n, num, den)


def gauge_form():
    """nu = -(z/(1-z)) * t(1-t)/(1-zt) as an exact (num, den) pair in (z, t)."""
    z = MPoly.var(2, 0)
    t = MPoly.var(2, 1)
    one = MPoly.const(2, 1)
    num = -1 * z * t * (one - t)
    den = (one - z) * (one - z * t)
    return num, den


def form_recurrence_check(n, k):
    """Exact identity d/dz omega(n,k) = (1/z) omega(n,k-1), for 2 <= k <= n,
    together with d/dz omega(n,0) = 0."""
    if not 2 <= k <= n:
        raise DomainError("recurrence check needs 2 <= k <= n")
    if not omega(n, 0).d_dz().num.is_zero():
        return False
    lhs = omega(n, k).d_dz()
    rhs = omega(n, k - 1)
    z = MPoly.var(2, 0)
    return rational_functions_equal(lhs.num, lhs.den, rhs.num, z * rhs.den)


def gauge_exactness_check(nu_num=None, nu_den=None):
    """Exact statement that d/dz omega(1,1) - (1/(1-z)) omega(1,0) = d/dt nu,
    with nu vanishing at t = 0 and t = 1.  At n = 1, tau is t itself, so the
    forms and nu share the variables (z, t).

    A different candidate (num, den) pair for nu may be supplied; the check
    then reports whether that candidate satisfies both conditions.
    """
    if nu_num is None or nu_den is None:
        nu_num, nu_den = gauge_form()
    one = MPoly.const(2, 1)
    z = MPoly.var(2, 0)

    # boundary conditions: nu(t=0) = nu(t=1) = 0 as rational functions of z
    for t_val in (0, 1):
        if nu_den.substitute(1, t_val).is_zero():
            return False
        if not nu_num.substitute(1, t_val).is_zero():
            return False

    # d/dz omega(1,1) - (1/(1-z)) omega(1,0), over the common denominator
    w11 = omega(1, 1)
    w10 = omega(1, 0)
    d = w11.d_dz()
    lhs_num = d.num * (one - z) * w10.den - w10.num * d.den
    lhs_den = d.den * (one - z) * w10.den

    dt_num = nu_num.diff(1) * nu_den - nu_num * nu_den.diff(1)
    dt_den = nu_den * nu_den
    return rational_functions_equal(lhs_num, lhs_den, dt_num, dt_den)


# Halvings of the step after h = 1/2: at most 2^(_HALVINGS + 4) + 1 = 65 537
# nodes, so a request that cannot converge still ends within about 0.2 s.
_HALVINGS = 12
_EPS = 2.0 ** -52  # float64's machine epsilon


def _distance_to_cut(z):
    z = complex(z)
    if z.real >= 1.0:
        return abs(z.imag)
    return abs(z - 1.0)


def integrate_cube(n, k, z, tol):
    """Integral of omega(n, k) over the unit n-cube, as the one-dimensional
    integral it equals, by a double-exponential trapezoid rule in float64.

    The pushforward.  The coefficient of omega(n, k) is g(z t_1...t_n), with
    g(x) = z E_{n-k}(x) / (1 - x)^(n-k+1) for k >= 1 and g = 1 for k = 0.
    For every g continuous on the segment z [0, 1],

        int_[0,1]^n g(z t_1...t_n) dt
            = int_0^oo g(z e^-s) s^(n-1) e^-s / (n-1)! ds.

    Proof.  Put t_i = e^(-y_i): dt_i = e^(-y_i) dy_i maps [0, oo)^n onto
    (0, 1]^n, so the left side is the integral over y in [0, oo)^n of
    g(z e^-s) e^-s with s = y_1 + ... + y_n.  The map
    (y_1, ..., y_n) -> (y_1, ..., y_(n-1), s) has Jacobian 1, and for fixed s
    the first n - 1 coordinates range over the simplex y_i >= 0,
    y_1 + ... + y_(n-1) <= s, of volume s^(n-1) / (n-1)!.  The integrand is
    bounded by max |g| e^-s, which is integrable on [0, oo)^n, so Fubini's
    theorem integrates the simplex first and leaves the right side.  (In
    words: the -log t_i are independent Exp(1) variables, so s = -log u,
    u = t_1...t_n, has the Gamma(n, 1) density.)  With g = 1 the right side
    is 1, and k = 0 goes through the same rule as every other k.

    The rule.  s = exp((pi/2) sinh t) maps the real t-line onto (0, oo) with
    ds = s (pi/2) cosh t dt, and the integrand in t,
    g(z e^-s) s^n e^-s (pi/2) cosh t / (n-1)!, decays double exponentially
    at both ends (Takahasi and Mori 1974).  The trapezoid sum runs over
    t in [-4, 4], that is s in [s_-, s_+] with s_- < 2.5e-19 and
    s_+ > 4e18: the tails left out add at most max |g| (s_-^n / n! + e^-s_+),
    below the rounding of any sum that max |g| enters.  The step starts
    at h = 1/2 and is halved, at most _HALVINGS times, until two successive
    sums differ by at most tol; the finer one is returned.  The nodes of
    step h are among those of h/2, so each halving evaluates only the odd
    multiples of h/2 that it adds, and every node is evaluated once; the
    sums over all nodes so far are kept in math.fsum.  A difference below
    the rounding of the sum, eps * sum |term| with eps = 2^-52, says
    nothing, so a tol below that floor is never met and ends in
    IntegrationError.  The error of the trapezoid rule falls like
    exp(-2 pi d / h), where d is the half-width of the strip in t on which
    the integrand is analytic; the pole of g at s = log z is what narrows
    it, so z near the cut needs more halvings.

    Cost guard: 1 <= n <= 4.  The point z must be finite and keep distance
    >= 0.05 from the half-line [1, oo), and tol must be positive and finite;
    each is checked before any node is evaluated.
    """
    if not 1 <= n <= 4:
        raise DomainError("integrate_cube supports 1 <= n <= 4")
    if not 0 <= k <= n:
        raise DomainError("k must satisfy 0 <= k <= n")
    # both tests are negated so that NaN fails them
    if not 0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    zc = complex(mp.mpc(mp.mpmathify(z)))
    if not (abs(zc) < math.inf and _distance_to_cut(zc) >= 0.05):
        raise DomainError("z must be finite and keep distance >= 0.05 from "
                          "the half-line [1, oo)")
    r = n - k
    e = eulerian(r)
    descending = [float(e.terms.get((d,), 0))
                  for d in range(e.degree_in(0), -1, -1)]

    def term(t):
        log_s = 0.5 * math.pi * math.sinh(t)
        s = math.exp(log_s)
        if s > 1000.0:
            # s^n e^-s <= e^(4 * 43 - 1000) underflows to exactly 0.0
            return 0.0
        g = 1.0
        if k:
            x = zc * math.exp(-s)
            p = 0j
            for c in descending:
                p = p * x + c
            g = zc * p / (1.0 - x) ** (r + 1)
        return g * math.exp(n * log_s - s) * math.cosh(t)

    # level 0 takes t = -4 + j h for j = 0..16, each later level the odd j;
    # fsum rounds the running sums once a level
    scale = 0.5 * math.pi / math.factorial(n - 1)
    real = imag = size = 0.0
    prev = None
    for level in range(_HALVINGS + 1):
        h = 0.5 ** (level + 1)
        new = [term(j * h - 4.0) for j in
               (range(1, 2 ** (level + 4), 2) if level else range(17))]
        real = math.fsum([real] + [v.real for v in new])
        imag = math.fsum([imag] + [v.imag for v in new])
        size = math.fsum([size] + [abs(v) for v in new])
        val = complex(real, imag) * (scale * h)
        floor = _EPS * size * (scale * h)
        if prev is not None and max(abs(val - prev), floor) <= tol:
            return mp.mpc(val)
        prev = val
    raise IntegrationError(
        f"quadrature did not converge to tol={tol} in {_HALVINGS} halvings "
        f"of the step")
