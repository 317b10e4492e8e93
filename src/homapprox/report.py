"""Rendering of pipeline results as text, LaTeX and JSON.

All three formats print the same exact fractions; JSON serialization is
deterministic (sorted keys, fixed indentation) so a load/dump round trip
is byte-stable.
"""
from __future__ import annotations

import json

from . import expr as ex
from .algebra import AlgElem, exact_str, scaled, signed_sum
from .approx import ApproximationResult, PolynomialSystem


# ---------------------------------------------------------------------------
# shared helpers

def _polynomial(comp: dict, x: str, power: str, times: str) -> str:
    """Monomial map as a signed sum ascending by (t_power, x_powers), with
    x_j written `x`.format(j), base^q `power`.format(base, q), and `times`."""
    def monomial(t_pow, x_pows):
        powers = [("t", t_pow)] + [(x.format(j + 1), q) for j, q in enumerate(x_pows)]
        return times.join(b if q == 1 else power.format(b, q) for b, q in powers if q)

    return signed_sum([scaled(c, monomial(*k), times) for k, c in sorted(comp.items())])


def polynomial_str(comp: dict) -> str:
    return _polynomial(comp, "x{}", "{}^{}", "*")


def polynomial_latex(comp: dict) -> str:
    return _polynomial(comp, "x_{}", "{}^{{{}}}", r"\,")


def polynomial_json(comp: dict) -> list:
    return [
        {"t_power": k[0], "x_powers": list(k[1]), "coeff": exact_str(c)}
        for k, c in sorted(comp.items())
    ]


def elem_latex(e: AlgElem) -> str:
    return e.render(lambda w: r"\xi_{" + r"\,".join(map(str, w)) + "}", r"\,")


def _system_lines(system, render, control: str, line: str) -> list:
    """One `line` per component i of a PolynomialSystem or ControlSystem,
    formatted with i and the right-hand side a_i + `control` (which holds
    b_i), the zero parts left out."""
    lines = []
    for i in range(system.n):
        a_str, b_str = render(system.a[i]), render(system.b[i])
        terms = [a_str] if a_str != "0" else []
        if b_str != "0":
            terms.append(control.format(b_str))
        lines.append(line.format(i + 1, signed_sum(terms)))
    return lines


# (control wrapper, line format) of a polynomial system in each format
_TEXT = ("({})*u", "  dx{}/dt = {}")
_LATEX = (r"\left({}\right)u", r"\dot x_{{{}}} &= {} \\")


def _witness_scope(index: int, first: str, first_to: str) -> str:
    """The projected elements before the witness index: constants, the
    first one, or the first through index - 1 (filled into `first_to`)."""
    if index == 1:
        return "constants"
    if index == 2:
        return first
    return first_to.format(index - 1)


# ---------------------------------------------------------------------------
# text report

def render_text(result: ApproximationResult, mode: str = "both", verification=None) -> str:
    lines = []
    sys = result.system
    lines.append("Homogeneous approximation report")
    lines.append("=" * 40)
    lines.append(f"State dimension n = {sys.n}, series order N = {result.N}")
    lines.append("Input system:")
    lines.extend(_system_lines(sys, ex.expr_to_str, *_TEXT))
    lines.append("")
    lines.append("Moment series (nonzero coefficients, orders <= N):")
    for w, vec in result.table.nonzero_items():
        word = " ".join(str(m) for m in w)
        coeffs = ", ".join(map(exact_str, vec))
        lines.append(f"  v(xi_{{{word}}}) = ({coeffs})")
    lines.append("")
    lines.append("Core elements (independent moment directions):")
    for k, l in enumerate(result.core.ell):
        vec = ", ".join(map(exact_str, l.vcoeff))
        lines.append(
            f"  l_{k + 1} = g_{l.index} = {l.elem}  (order {l.order}, v = ({vec}))"
        )
    if result.core.dees:
        lines.append("Ideal generators (corrected dependent directions):")
        for j, d in enumerate(result.core.dees):
            combo = signed_sum([scaled(c, f"g_{i}", "*") for c, i in d.combo])
            lines.append(f"  d_{j + 1} = {combo} = {d.elem}  (order {d.order})")
    else:
        lines.append("Ideal generators: none")
    lines.append("")
    lines.append("Ideal blocks at core orders:")
    for m in sorted(result.blocks):
        blk = result.blocks[m]
        lines.append(
            f"  order {m}: rank {blk.rank} in dimension {blk.dim}"
            f" ({blk.rank} independent rows)"
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
        lines.extend(_system_lines(result.nonautonomous, polynomial_str, *_TEXT))
    if mode in ("both", "autonomous"):
        lines.append("")
        aut = result.autonomous
        if isinstance(aut, PolynomialSystem):
            lines.append("Autonomous homogeneous approximation:")
            lines.extend(_system_lines(aut, polynomial_str, *_TEXT))
        else:
            lines.append("Autonomous homogeneous approximation: does not exist")
            scope = _witness_scope(aut.index, "l~_1", "l~_1..l~_{}")
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


def _verification_lines(verification) -> list:
    oc = verification["order_check"]
    lines = [f"  residual order check (required slope >= {oc.required_slope}):"]
    for c in oc.checks:
        slope = "noise floor" if c.slope is None else f"{c.slope:.3f}"
        lines.append(f"    {c.control.describe()}: slope {slope}")
    lines.append(
        f"  max shuffle-identity residual: {verification['shuffle_residual']:.3e}"
    )
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
    series = []
    for w, vec in result.table.nonzero_items():
        word = r"\,".join(str(m) for m in w)
        coeffs = ", ".join(map(exact_str, vec))
        series.append(rf"v(\xi_{{{word}}}) &= ({coeffs}) \\")
    lines.extend(_align(series))
    lines.append(r"\subsection*{Core and projection}")
    lines.extend(_align(
        rf"\ell_{{{k + 1}}} &= {elem_latex(l.elem)}, &"
        rf" \tilde\ell_{{{k + 1}}} &= {elem_latex(lt)} \\"
        for k, (l, lt) in enumerate(zip(result.core.ell, result.projected))
    ))
    if result.core.dees:
        lines.append(r"Ideal generators:")
        lines.extend(_align(
            rf"d_{{{j + 1}}} &= {elem_latex(d.elem)} \\"
            for j, d in enumerate(result.core.dees)
        ))
    weights = ", ".join(str(w) for w in result.weights)
    lines.append(rf"Weights: $({weights})$.")
    if mode in ("both", "nonautonomous"):
        lines.append(r"\subsection*{Non-autonomous approximation}")
        rows = _system_lines(result.nonautonomous, polynomial_latex, *_LATEX)
        lines.extend(_align(rows))
    if mode in ("both", "autonomous"):
        aut = result.autonomous
        lines.append(r"\subsection*{Autonomous approximation}")
        if isinstance(aut, PolynomialSystem):
            lines.extend(_align(_system_lines(aut, polynomial_latex, *_LATEX)))
        else:
            scope = _witness_scope(
                aut.index,
                r"$\tilde\ell_{1}$",
                r"$\tilde\ell_1,\dots,\tilde\ell_{{{}}}$",
            )
            lines.append(
                rf"Does not exist: $\{aut.kind}(\tilde\ell_{{{aut.index}}})"
                rf" = {elem_latex(aut.witness)}$ is not a shuffle polynomial"
                rf" in {scope}."
            )
    if verification is not None:
        lines.append(r"\subsection*{Numerical verification}")
        for line in _verification_lines(verification):
            lines.append(line.strip() + r" \\")
    lines.append("")
    return "\n".join(lines)


def _align(rows) -> list:
    return [r"\begin{align*}", *rows, r"\end{align*}"]


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
                    "moment_image": [exact_str(c) for c in l.vcoeff],
                }
                for k, l in enumerate(result.core.ell)
            ],
            "ideal_generators": [
                {
                    "order": d.order,
                    "combination": [[exact_str(c), i] for c, i in d.combo],
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
        oc = verification["order_check"]
        out["verification"] = {
            "required_slope": oc.required_slope,
            "checks": [
                {
                    "control": list(c.control.values),
                    "thetas": list(c.thetas),
                    "residuals": list(c.residuals),
                    "slope": c.slope,
                }
                for c in oc.checks
            ],
            "max_shuffle_residual": verification["shuffle_residual"],
        }
    return out


def _poly_system_dict(psys: PolynomialSystem) -> dict:
    return {
        "a": [polynomial_json(c) for c in psys.a],
        "b": [polynomial_json(c) for c in psys.b],
    }


def render_json(result: ApproximationResult, mode: str = "both", verification=None) -> str:
    """result_to_dict's output as json.dumps(..., indent=2, sort_keys=True)
    writes it, byte for byte, without json's pure-Python indent encoder."""
    out: list = []
    _emit(result_to_dict(result, mode, verification), "", out)
    return "".join(out)


# the scalar types written without json.dumps: a str by the C routine that
# ensure_ascii=True uses, an int (not a bool) by int's own repr
_string = json.encoder.encode_basestring_ascii
_SCALARS = {str: _string, int: int.__repr__}


def _emit(v, indent: str, out: list) -> None:
    """Append the text of v, nested at `indent`, as json.dumps(v, indent=2,
    sort_keys=True) writes it.  Dict keys must be str.  A tuple is written
    as a list, as json.dumps writes it (result_to_dict makes none).  Floats
    (NaN and Infinity too), bools and None go through json.dumps."""
    encode = _SCALARS.get(type(v))
    if encode is not None:
        out.append(encode(v))
    elif not isinstance(v, (dict, list, tuple)):
        out.append(json.dumps(v))
    elif not v:
        out.append("{}" if isinstance(v, dict) else "[]")
    else:
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(v, dict):
            for k, key in enumerate(sorted(v)):
                out.append(("{\n" + inner if k == 0 else sep) + _string(key) + ": ")
                _emit(v[key], inner, out)
            out.append("\n" + indent + "}")
            return
        kinds = set(map(type, v))
        encode = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if encode is not None:  # words, x_powers and coefficient vectors
            out.append("[\n" + inner + sep.join(map(encode, v)))
        else:
            for k, item in enumerate(v):
                out.append("[\n" + inner if k == 0 else sep)
                _emit(item, inner, out)
        out.append("\n" + indent + "]")
