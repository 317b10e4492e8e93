"""Rendering of pipeline results as text, LaTeX and JSON.

All three formats print the same exact fractions; JSON serialization is
deterministic (sorted keys, fixed indentation) so a load/dump round trip
is byte-stable.
"""
from __future__ import annotations

import json
from fractions import Fraction

from . import expr as ex
from .algebra import AlgElem
from .approx import ApproximationResult, PolynomialSystem, polynomial_expr


# ---------------------------------------------------------------------------
# shared helpers

def polynomial_str(comp: dict) -> str:
    if not comp:
        return "0"
    return ex.render(polynomial_expr(comp))


def polynomial_json(comp: dict) -> list:
    return [
        {"t_power": k[0], "x_powers": list(k[1]), "coeff": str(c)}
        for k, c in sorted(comp.items())
    ]


def _fraction_latex(c: Fraction) -> str:
    return str(c)


def elem_latex(e: AlgElem) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for w, c in e.sorted_items():
        name = r"\xi_{" + r"\,".join(str(m) for m in w) + "}" if w else ""
        if w == ():
            body = _fraction_latex(c)
        elif c == 1:
            body = name
        elif c == -1:
            body = "-" + name
        else:
            body = _fraction_latex(c) + r"\," + name
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def polynomial_latex(comp: dict) -> str:
    if not comp:
        return "0"
    pieces = []
    for (t_pow, x_pows), c in sorted(comp.items()):
        factors = []
        if t_pow:
            factors.append("t" if t_pow == 1 else f"t^{{{t_pow}}}")
        for j, q in enumerate(x_pows):
            if q:
                factors.append(f"x_{j + 1}" if q == 1 else f"x_{j + 1}^{{{q}}}")
        body = r"\,".join(factors)
        if not body:
            pieces.append(_fraction_latex(c))
        elif c == 1:
            pieces.append(body)
        elif c == -1:
            pieces.append("-" + body)
        else:
            pieces.append(_fraction_latex(c) + r"\," + body)
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _sorted_series(result: ApproximationResult):
    return result.table.nonzero_items()


# ---------------------------------------------------------------------------
# text report

def render_text(result: ApproximationResult, mode: str = "both", verification=None) -> str:
    lines = []
    sys = result.system
    lines.append("Homogeneous approximation report")
    lines.append("=" * 40)
    lines.append(f"State dimension n = {sys.n}, series order N = {result.N}")
    lines.append("Input system:")
    for line in sys.render():
        lines.append("  " + line)
    lines.append("")
    lines.append("Moment series (nonzero coefficients, orders <= N):")
    for w, vec in _sorted_series(result):
        word = " ".join(str(m) for m in w)
        coeffs = ", ".join(str(c) for c in vec)
        lines.append(f"  v(xi_{{{word}}}) = ({coeffs})")
    lines.append("")
    lines.append("Core elements (independent moment directions):")
    for k, l in enumerate(result.core.ell):
        vec = ", ".join(str(c) for c in l.vcoeff)
        lines.append(
            f"  l_{k + 1} = g_{l.index} = {l.elem}  (order {l.order}, v = ({vec}))"
        )
    if result.core.dees:
        lines.append("Ideal generators (corrected dependent directions):")
        for j, d in enumerate(result.core.dees):
            combo = " + ".join(
                (f"{c}*g_{i}" if c != 1 else f"g_{i}") for c, i in d.combo
            )
            lines.append(f"  d_{j + 1} = {combo} = {d.elem}  (order {d.order})")
    else:
        lines.append("Ideal generators: none")
    lines.append("")
    lines.append("Ideal blocks at core orders:")
    for m in sorted(result.blocks):
        blk = result.blocks[m]
        lines.append(
            f"  order {m}: rank {blk.rank} in dimension {blk.dim}"
            f" ({len(blk.rows)} independent rows)"
        )
    lines.append("")
    lines.append("Projected core elements:")
    for k, lt in enumerate(result.projected):
        lines.append(f"  l~_{k + 1} = {lt}")
    lines.append("")
    weights = ", ".join(str(w) for w in result.weights)
    lines.append(f"Weights (w_1..w_n) = ({weights})")
    if mode in ("both", "nonautonomous"):
        lines.append("")
        lines.append("Non-autonomous homogeneous approximation:")
        lines.extend(_poly_system_lines(result.nonautonomous, polynomial_str))
    if mode in ("both", "autonomous"):
        lines.append("")
        aut = result.autonomous
        if isinstance(aut, PolynomialSystem):
            lines.append("Autonomous homogeneous approximation:")
            lines.extend(_poly_system_lines(aut, polynomial_str))
        else:
            lines.append("Autonomous homogeneous approximation: does not exist")
            if aut.index == 1:
                scope = "constants"
            elif aut.index == 2:
                scope = "l~_1"
            else:
                scope = f"l~_1..l~_{aut.index - 1}"
            lines.append(
                f"  witness: {aut.kind}(l~_{aut.index}) = {aut.witness} is not a"
                f" shuffle polynomial in {scope}"
            )
    if verification is not None:
        lines.append("")
        lines.append("Numerical verification:")
        lines.extend(_verification_lines(verification))
    lines.append("")
    return "\n".join(lines)


def _poly_system_lines(psys: PolynomialSystem, renderer) -> list:
    lines = []
    for i in range(psys.n):
        a_str = renderer(psys.a[i])
        b_str = renderer(psys.b[i])
        if a_str == "0":
            rhs = f"({b_str})*u" if b_str != "0" else "0"
        elif b_str == "0":
            rhs = a_str
        else:
            rhs = f"{a_str} + ({b_str})*u"
        lines.append(f"  dx{i + 1}/dt = {rhs}")
    return lines


def _verification_lines(verification) -> list:
    lines = []
    oc = verification.get("order_check")
    if oc is not None:
        lines.append(
            f"  residual order check (required slope >= {oc.required_slope}):"
        )
        for c in oc.checks:
            slope = "noise floor" if c.slope is None else f"{c.slope:.3f}"
            lines.append(f"    {c.control.describe()}: slope {slope}")
    sh = verification.get("shuffle_residual")
    if sh is not None:
        lines.append(f"  max shuffle-identity residual: {sh:.3e}")
    return lines


# ---------------------------------------------------------------------------
# latex report

def render_latex(result: ApproximationResult, mode: str = "both", verification=None) -> str:
    lines = []
    lines.append(r"\section*{Homogeneous approximation report}")
    lines.append(
        rf"State dimension $n = {result.system.n}$, series order $N = {result.N}$."
    )
    lines.append(r"\subsection*{Moment series}")
    lines.append(r"\begin{align*}")
    for w, vec in _sorted_series(result):
        word = r"\,".join(str(m) for m in w)
        coeffs = ", ".join(str(c) for c in vec)
        lines.append(rf"v(\xi_{{{word}}}) &= ({coeffs}) \\")
    lines.append(r"\end{align*}")
    lines.append(r"\subsection*{Core and projection}")
    lines.append(r"\begin{align*}")
    for k, (l, lt) in enumerate(zip(result.core.ell, result.projected)):
        lines.append(
            rf"\ell_{{{k + 1}}} &= {elem_latex(l.elem)}, &"
            rf" \tilde\ell_{{{k + 1}}} &= {elem_latex(lt)} \\"
        )
    lines.append(r"\end{align*}")
    if result.core.dees:
        lines.append(r"Ideal generators:")
        lines.append(r"\begin{align*}")
        for j, d in enumerate(result.core.dees):
            lines.append(rf"d_{{{j + 1}}} &= {elem_latex(d.elem)} \\")
        lines.append(r"\end{align*}")
    weights = ", ".join(str(w) for w in result.weights)
    lines.append(rf"Weights: $({weights})$.")
    if mode in ("both", "nonautonomous"):
        lines.append(r"\subsection*{Non-autonomous approximation}")
        lines.extend(_poly_system_latex(result.nonautonomous))
    if mode in ("both", "autonomous"):
        aut = result.autonomous
        lines.append(r"\subsection*{Autonomous approximation}")
        if isinstance(aut, PolynomialSystem):
            lines.extend(_poly_system_latex(aut))
        else:
            lines.append(
                rf"Does not exist: $\{aut.kind}(\tilde\ell_{{{aut.index}}})"
                rf" = {elem_latex(aut.witness)}$ is not a shuffle polynomial"
                rf" in $\tilde\ell_1,\dots,\tilde\ell_{{{aut.index - 1}}}$."
            )
    if verification is not None:
        lines.append(r"\subsection*{Numerical verification}")
        for line in _verification_lines(verification):
            lines.append(line.strip() + r" \\")
    lines.append("")
    return "\n".join(lines)


def _poly_system_latex(psys: PolynomialSystem) -> list:
    lines = [r"\begin{align*}"]
    for i in range(psys.n):
        a_str = polynomial_latex(psys.a[i])
        b_str = polynomial_latex(psys.b[i])
        if a_str == "0":
            rhs = rf"\left({b_str}\right)u" if b_str != "0" else "0"
        elif b_str == "0":
            rhs = a_str
        else:
            rhs = rf"{a_str} + \left({b_str}\right)u"
        lines.append(rf"\dot x_{{{i + 1}}} &= {rhs} \\")
    lines.append(r"\end{align*}")
    return lines


# ---------------------------------------------------------------------------
# json report

def result_to_dict(result: ApproximationResult, mode: str = "both", verification=None) -> dict:
    out = {
        "n": result.system.n,
        "N": result.N,
        "weights": list(result.weights),
        "series": result.table.to_json(),
        "core": {
            "ell": [
                {
                    "position": k + 1,
                    "basis_index": l.index,
                    "word": list(l.word),
                    "order": l.order,
                    "element": l.elem.to_json(),
                    "moment_image": [str(c) for c in l.vcoeff],
                }
                for k, l in enumerate(result.core.ell)
            ],
            "ideal_generators": [
                {
                    "order": d.order,
                    "combination": [[str(c), i] for c, i in d.combo],
                    "element": d.elem.to_json(),
                }
                for d in result.core.dees
            ],
        },
        "ideal_blocks": [
            {
                "order": m,
                "dimension": result.blocks[m].dim,
                "rank": result.blocks[m].rank,
            }
            for m in sorted(result.blocks)
        ],
        "projected": [
            {"position": k + 1, "order": result.weights[k], "element": lt.to_json()}
            for k, lt in enumerate(result.projected)
        ],
    }
    if mode in ("both", "nonautonomous"):
        out["nonautonomous"] = _poly_system_dict(result.nonautonomous)
    if mode in ("both", "autonomous"):
        aut = result.autonomous
        if isinstance(aut, PolynomialSystem):
            out["autonomous"] = {"exists": True, **_poly_system_dict(aut)}
        else:
            out["autonomous"] = {
                "exists": False,
                "witness_index": aut.index,
                "witness_kind": aut.kind,
                "witness_order": aut.order,
                "witness": aut.witness.to_json(),
            }
    if verification is not None:
        oc = verification.get("order_check")
        ver = {}
        if oc is not None:
            ver["required_slope"] = oc.required_slope
            ver["checks"] = [
                {
                    "control": list(c.control.values),
                    "thetas": list(c.thetas),
                    "residuals": list(c.residuals),
                    "slope": c.slope,
                }
                for c in oc.checks
            ]
        if verification.get("shuffle_residual") is not None:
            ver["max_shuffle_residual"] = verification["shuffle_residual"]
        out["verification"] = ver
    return out


def _poly_system_dict(psys: PolynomialSystem) -> dict:
    return {
        "a": [polynomial_json(c) for c in psys.a],
        "b": [polynomial_json(c) for c in psys.b],
    }


def render_json(result: ApproximationResult, mode: str = "both", verification=None) -> str:
    return json.dumps(
        result_to_dict(result, mode, verification), indent=2, sort_keys=True
    )
