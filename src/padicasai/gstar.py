"""The determinant-fibered group G* = Res(GL2) x_D GL1: embeddings,
local factors with their ideal certificates, and the Frobenius grading.

Inert p: G*(Q_p) is the rational-determinant subgroup of GL2(F) and the
G* spherical algebra maps isomorphically onto the GL2(F) one.  Split p:
G*(Q_p) is the equal-determinant fiber product and its algebra is the
determinant-balanced subalgebra of the pair algebra; the embedding iota
is the identity in the carried coordinates, so solving iota(P*) = P is a
balance check plus a retag.

The Frobenius symbol is formal: a monomial of determinant valuation d is
graded Frob^d.  Applied to the involuted Euler factor at X = 1 this
reproduces its value at Frob^(-1), which is the shape the cyclotomic
norm-relation factor takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .heckealg import (
    HeckeElem,
    HeckeIdealCert,
    euler_poly,
    ideal_cert,
    iota_solve,
    monomial_det_val,
)
from .heckemod import TestVector, local_factor, trace_level, vector_is_integral


def ip_embed(vec: TestVector) -> TestVector:
    """i_p (and its determinant-level variant): phi (x) ch(g K*) goes to
    phi (x) ch(g K), i.e. the star flag is dropped at the same level."""
    if not vec.star:
        raise ValueError("ip_embed expects a G* vector")
    return TestVector(vec.ctx, vec.case, vec.level, list(vec.summands), star=False)


@dataclass
class GStarFactorReport:
    p_star: HeckeElem
    p_big: HeckeElem
    cert: HeckeIdealCert

    def to_json(self) -> dict:
        return {
            "p_star": self.p_star.to_json(),
            "iota_image": self.p_big.to_json(),
            "certificate": self.cert.to_json(),
        }


def gstar_factor(vec: TestVector) -> GStarFactorReport:
    """P*_(Tr delta*) with its <p-1, P'_(p,As*)(1)> certificate.

    Computes the big-group factor of the traced i_p-image, solves
    iota(P*) = P (onto for inert p; a balance check for split p, the
    counting argument on the monomial grading), and certifies membership
    in the G* algebra directly.
    """
    if not vec.star or vec.level != "K[p]":
        raise ValueError("gstar_factor expects a G* vector at determinant level")
    if not vector_is_integral(vec):
        raise ValueError("the vector fails its integrality precondition")
    p = vec.ctx.p
    big = ip_embed(vec)
    P = local_factor(trace_level(big))
    P_star = iota_solve(P)
    kind = "asai_star_inert" if vec.case == "inert" else "asai_star_split"
    Q = euler_poly(kind, p).involute_at_one()
    cert = ideal_cert(P_star, "p-1", Q, p)
    return GStarFactorReport(P_star, P, cert)


# ---------------------------------------------------------------------------
# Frobenius grading


@dataclass
class GradedFactor:
    """Formal sum of (Hecke monomial) * Frob^(v_p det)."""

    group: str
    terms: list  # (HeckeElem monomial, frob exponent)

    def to_json(self) -> dict:
        return {
            "convention": "frob_exponent = v_p(det) of the monomial",
            "terms": [{"hecke": h.to_json(), "frob": e} for h, e in self.terms],
        }

    def __eq__(self, other):
        def norm(ts):
            out = {}
            for h, e in ts:
                for mono, c in h.poly.terms.items():
                    out[(mono, e)] = out.get((mono, e), Fraction(0)) + c
            return {k: v for k, v in out.items() if v}

        return isinstance(other, GradedFactor) and self.group == other.group and norm(self.terms) == norm(other.terms)


def frob_grade(h: HeckeElem) -> GradedFactor:
    """Attach Frob^(v_p det) to every double-coset monomial of h."""
    out = []
    for e, c in sorted(h.poly.terms.items()):
        mono = HeckeElem.monomial(h.group, e, c)
        out.append((mono, monomial_det_val(h.group, e)))
    return GradedFactor(h.group, out)


def cyclotomic_factor_candidate(rep: GStarFactorReport) -> dict:
    """The Frobenius-graded traced factor, labeled as the candidate
    cyclotomic norm-relation factor (the grading rule is the intertwining
    v_p(det); the identification is an interpretation, recorded as such)."""
    graded = frob_grade(rep.p_star)
    return {
        "candidate_cyclotomic_factor": graded.to_json(),
        "ideal_certificate": rep.cert.to_json(),
        "interpretation": "graded traced local factor; canonical up to the "
        "stated intertwining convention",
    }
