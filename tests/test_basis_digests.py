"""Reduced bases of the frontier specs against committed SHA-256 digests.

A digest is taken over the rendered basis elements joined by newlines, as
``perfbench/reference.basis_digest`` does.  The tier-1 suite checks the two
fast specs; the slower ones are checked by running this file directly::

    python tests/test_basis_digests.py "Gr(2,6)" "Gr(3,6)"
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from listpoly import minimalize_monomials
from symtensor.catalog import ideal_presentation_for, parse_spec
from symtensor.groebner import buchberger, leading_term_ideal

DIGESTS = json.loads((Path(__file__).parent / "data" / "basis_digests.json").read_text())


def check_basis(text):
    basis = buchberger(ideal_presentation_for(parse_spec(text)))
    elements = basis.elements
    lines = [p.render() for p in elements]
    want = DIGESTS[text]
    assert len(lines) == want["elements"], f"{text}: {len(lines)} elements"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want["sha256"], text
    lts = [p.leading_monomial() for p in elements]
    assert leading_term_ideal(basis).gens == minimalize_monomials(lts), text


@pytest.mark.parametrize("text", ["Gr(1,6)", "Q(6)"])
def test_reduced_basis_digest(text):
    check_basis(text)


if __name__ == "__main__":
    for spec in sys.argv[1:]:
        check_basis(spec)
        print(f"{spec}: reduced basis matches its digest")
