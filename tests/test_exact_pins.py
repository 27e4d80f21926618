"""Pins of the exact layer's outputs, as the text of every field.

The drift certificates, the <drift, normal> products, the enumerated drifts,
the level-set fixture and the three-bin bound return `Fraction`s, and the
benchmark digests their `str()`.  A faster exact layer must return the same
values of the same types: each output is pinned as a digest of the text of
its fields, where every leaf is written as its type's name and its `str()`,
so that an `int` in place of a `Fraction` changes the digest.
"""

import hashlib
from fractions import Fraction as F

import pytest

from lobphase import analytics, lyapunov


def text(x) -> str:
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(text(y) for y in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{text(k)}:{text(x[k])}" for k in sorted(x)) + "}"
    return f"{type(x).__name__}:{x}"


def digest(*fields) -> str:
    return hashlib.sha256(text(fields).encode()).hexdigest()[:16]


ENUMERATED = {c: lyapunov.enumerated_drift_affine(c) for c in lyapunov.DRIFT_REGIONS}
EPS = ("0", "1/100", "1/40", "1/30", "1/20", "3/25", "123/40000")
PAIRS = [(d, n) for n in lyapunov.DRIFT_REGIONS for d in lyapunov.DRIFT_REGIONS
         if lyapunov.compatible(d, n)]


def certificate_digest(cert) -> str:
    return digest(cert.eps_max, cert.entries, cert.passed, cert.failures,
                  cert.eps_star, cert.min_margin_at_zero)


CERTIFY_PINS = {
    ("published", "0"): "3b07dd8a47db7a43",
    ("published", "1/100"): "340f9162c371aa5c",
    ("published", "1/40"): "a9a47daa73ed48f8",
    ("published", "1/30"): "691cae41fb78f589",
    ("published", "1/20"): "4378de9be220bcaf",
    ("published", "3/25"): "0e9bd9e0ee8b8422",
    ("published", "123/40000"): "99fd6cf4ceab23b9",
    ("enumerated", "0"): "8da3d90ce8950279",
    ("enumerated", "1/100"): "dc1541c756400c85",
    ("enumerated", "1/40"): "e4659d184f77f29c",
    ("enumerated", "1/30"): "a7ae89d73e6af1a0",
    ("enumerated", "1/20"): "723f6c2a699d95a9",
    ("enumerated", "3/25"): "a0fb126028f5c29e",
    ("enumerated", "123/40000"): "439d30ce5df0a2b2",
}
DRIFT_DOT_PIN = "a1fb58190d20ceea"
ENUMERATED_PIN = "8890f3166b64f0df"
FIXTURE_PINS = {"vertex_values": "c992a378d79e7275", "vertex_attains": "4b47129ce9dc52e8",
                "face_normals": "ac8f60574bda7cb5", "discrepancies": "7901412194ef8ba5"}
LOWER_BOUND_PIN = "4018c449e8d56fd3"
LOWER_BOUND_ARGS = [(0.4, 0.6), (0.25, 0.75), (0.1, 0.35), (0.3333, 0.6667),
                    ("2/5", "3/5"), ("0.21", "0.8"), (F(1, 3), F(2, 3)), (F(1, 7), F(5, 9)),
                    (F(2, 5), 0.6), (0.2178, F(4, 5))]


@pytest.mark.parametrize("table,eps", list(CERTIFY_PINS))
def test_certificate_is_pinned(table, eps):
    drifts = ENUMERATED if table == "enumerated" else None
    assert certificate_digest(lyapunov.certify_drift(F(eps), drifts=drifts)) \
        == CERTIFY_PINS[table, eps]


def test_drift_dot_is_pinned():
    values = [lyapunov.drift_dot(d, n, F(eps), drifts=drifts)
              for drifts in (None, ENUMERATED) for d, n in PAIRS for eps in EPS]
    assert digest(values) == DRIFT_DOT_PIN


def test_enumerated_drifts_are_pinned():
    assert digest([ENUMERATED[c] for c in lyapunov.DRIFT_REGIONS]) == ENUMERATED_PIN


def test_level_fixture_is_pinned():
    fx = lyapunov.verify_level_fixture()
    assert {k: digest(getattr(fx, k)) for k in FIXTURE_PINS} == FIXTURE_PINS


def test_lower_bound_3bin_is_pinned():
    assert digest([analytics.lower_bound_3bin(x, y) for x, y in LOWER_BOUND_ARGS]) \
        == LOWER_BOUND_PIN
