"""The stored characteristic-zero reference bases, recomputed with SymPy."""
import pytest

import workloads

sympy = pytest.importorskip("sympy")

REF = workloads.QQ_REFERENCE
VARS = REF["ring"]["variables"]
SYMS = sympy.symbols(VARS)
T = sympy.Symbol("t_aux")


def _polys(gens):
    names = dict(zip(VARS, SYMS))
    return [sympy.sympify(g.replace("^", "**"), locals=names) for g in gens]


def _reduced(polys):
    gb = sympy.groebner(polys, *SYMS, order="grevlex", domain="QQ")
    return {sympy.Poly(g, *SYMS).monic().as_expr() for g in gb.exprs}


def _intersection(a, b):
    mixed = [T * f for f in a] + [(1 - T) * g for g in b]
    gb = sympy.groebner(mixed, T, *SYMS, order="lex", domain="QQ")
    return [g for g in gb.exprs if not g.has(T)]


def _colon(a, divisors):
    result = None
    for b in divisors:
        quotient = [sympy.cancel(g / b) for g in _intersection(a, [b])]
        result = quotient if result is None else _intersection(result, quotient)
    return result


@pytest.mark.parametrize("base", sorted(REF["bases"]))
def test_reference_bases(base):
    entry = REF["bases"][base]
    gens = _polys(entry["generators"])
    assert _reduced(_polys(entry["gb"])) == _reduced(gens) == {
        sympy.Poly(g, *SYMS).monic().as_expr() for g in _polys(entry["gb"])
    }
    for ref in entry["colon"].values():
        want = {sympy.Poly(g, *SYMS).monic().as_expr() for g in _polys(ref["basis"])}
        assert _reduced(_colon(gens, _polys(ref["divisor"]))) == want
