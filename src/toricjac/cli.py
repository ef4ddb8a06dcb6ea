"""Command line front end.

The parser is built once per process from the command table ``_COMMANDS``,
on the first call of ``main`` (never at import).  Every command prints a
deterministic report (text by default, JSON with --json) and exits 0 on
success, 2 on invalid input, 1 on an internal invariant failure.
"""

import argparse
import functools
import json
import re
import sys

from .criterion import (DEFAULT_ATTEMPTS, DEFAULT_SEED, TABLE_DEGREES, evaluate,
                        find_rank_g_deformation, quick_criterion, trigonal_family_table)
from .cox import monomial_basis, poly_from_json, poly_from_text
from .divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                       intersect, pic_class, representative, PicClass)
from .errors import InputError, InternalError
from .fan import builtin_surface, fan_from_json
from .jacobian import JacobianSystem, NondegeneracyVerdict, check_k_max


def _opt(*flags, **kwargs):
    return flags, kwargs


SURFACE = (_opt("--surface", help="builtin surface: hirzebruch:r, p2, or p1xp1"),
           _opt("--fan-file", help="JSON file with rays and labels"))
CLASS = (_opt("--class", dest="class_arg", metavar="COORDS",
              help="divisor class; on Hirzebruch surfaces 'a,b' means a*D1 + b*D2"),)
CLASS_OF = CLASS + (_opt("--class-of", dest="class_of", metavar="EXPR",
                         help="class expression in beta and K, e.g. 2beta+2K"),)
POLY = (_opt("--poly", help="polynomial expression, e.g. x1^5*x2^3+x4"),
        _opt("--poly-file", help="polynomial file (JSON or expression)"))


def _read(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {what} file: {e}") from None


def _load_fan(args):
    if args.surface is not None and args.fan_file is not None:
        raise InputError("give either --surface or --fan-file, not both")
    if args.surface is not None:
        return builtin_surface(args.surface)
    if args.fan_file is not None:
        try:
            data = json.loads(_read(args.fan_file, "fan"))
        except json.JSONDecodeError as e:
            raise InputError(f"fan file is not valid JSON: {e}") from None
        return fan_from_json(data)
    raise InputError("a surface is required (--surface or --fan-file)")


def _parse_ints(text, want, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != want:
        raise InputError(f"{what} needs {want} comma-separated integers, "
                         f"got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"{what} must be integers, got {text!r}") from None


def _divisor_from_class_arg(fan, surface, text):
    if surface == "p2":
        (d,) = _parse_ints(text, 1, "--class")
        return divisor_from_labels(fan, {fan.labels[0]: d})
    if surface is not None:  # a Hirzebruch surface, p1xp1 included
        a, b = _parse_ints(text, 2, "--class")
        return divisor_from_labels(fan, {"x1": a, "x2": b})
    vec = _parse_ints(text, fan.n - 2, "--class")
    return representative(fan, PicClass(tuple(vec), fan.basis_id))


_CLASS_TERM = re.compile(r"([+-]?)(\d*)(beta|K)")


def _resolve_class_of(expr, beta_div, K_div):
    text = expr.replace("β", "beta").replace(" ", "").replace("*", "")
    pos = s = t = 0
    while True:  # at least one term, so a blank expression is refused
        m = _CLASS_TERM.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise InputError(f"cannot parse class expression {expr!r}; "
                             "expected terms like 2beta+2K")
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        if m.group(3) == "beta":
            s += coeff
        else:
            t += coeff
        pos = m.end()
        if pos == len(text):
            break
    if s and beta_div is None:
        raise InputError("the class expression mentions beta but no beta is "
                         "available; give --class or --poly")
    out = t * K_div
    if s:
        out = out + s * beta_div
    return out


def _load_poly(fan, args):
    if args.poly is not None and args.poly_file is not None:
        raise InputError("give either --poly or --poly-file, not both")
    if args.poly is not None:
        return poly_from_text(fan, args.poly)
    if args.poly_file is not None:
        text = _read(args.poly_file, "polynomial")
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as e:
                raise InputError(f"polynomial file is not valid JSON: {e}") from None
            return poly_from_json(fan, data)
        return poly_from_text(fan, stripped)
    raise InputError("a polynomial is required (--poly or --poly-file)")


def _inputs(args, need_f):
    """(fan, f, D): the surface, the section (None when optional and not
    given, refused when zero) and the divisor of --class / --class-of,
    else of f's class."""
    fan = _load_fan(args)
    given = args.poly is not None or args.poly_file is not None
    f = _load_poly(fan, args) if need_f or given else None
    if f is not None and f.is_zero():
        raise InputError("f must be nonzero")
    D = None
    if args.class_arg is not None:
        D = _divisor_from_class_arg(fan, args.surface, args.class_arg)
        if f is not None and f.homogeneous_class() != pic_class(fan, D):
            raise InputError("the polynomial's class does not match --class")
    elif f is not None:
        D = TorusDivisor(sorted(f.terms)[0])
    if args.class_of is not None:
        D = _resolve_class_of(args.class_of, D, canonical_divisor(fan))
    if D is None:
        # commands that need f take beta from --class or f, never --class-of
        raise InputError("a class for beta is required (--class or --poly)" if need_f
                         else "a class is required (--class, --class-of, or --poly)")
    return fan, f, D


def _cmd_describe(args):
    fan = _load_fan(args)
    selfs = fan.self_intersections()
    K = canonical_divisor(fan)
    kcls = pic_class(fan, K)
    gens = [fan.monomial_label(e) for e in fan.irrelevant_generators()]
    cones = [(fan.labels[i], fan.labels[j]) for i, j in fan.maximal_cones]
    payload = {
        "rays": [list(u) for u in fan.rays],
        "labels": list(fan.labels),
        "self_intersections": list(selfs),
        "maximal_cones": [list(c) for c in cones],
        "irrelevant_generators": gens,
        "canonical_class": list(kcls.vec),
        "K2": intersect(fan, K, K),
        "pic_basis_rays": list(fan.labels[2:]),
    }
    lines = [f"surface: {fan.n} rays, Picard rank {fan.n - 2}",
             "rays (counterclockwise):"]
    for lab, u, s in zip(fan.labels, fan.rays, selfs):
        lines.append(f"  {lab} = {u}   self-intersection {s}")
    lines.append("maximal cones: " + " ".join(f"({a},{b})" for a, b in cones))
    lines.append("irrelevant generators: " + " ".join(gens))
    lines.append(f"canonical class: {kcls.vec}")
    lines.append(f"K^2 = {payload['K2']}")
    lines.append("Pic basis: classes of the rays " + ", ".join(payload["pic_basis_rays"]))
    return payload, "\n".join(lines)


def _cmd_basis(args):
    fan, _, D = _inputs(args, need_f=False)
    basis = monomial_basis(fan, D)
    names = [fan.monomial_label(e) for e in basis]
    payload = {
        "divisor": list(D.coeffs),
        "class": list(pic_class(fan, D).vec),
        "dimension": len(basis),
        "monomials": names,
        "exponents": [list(e) for e in basis],
    }
    lines = [f"divisor: {tuple(D.coeffs)}  class {pic_class(fan, D).vec}",
             f"dimension: {len(basis)}"]
    lines += [f"  {name}" for name in names]
    return payload, "\n".join(lines)


def _cmd_nondegenerate(args):
    fan, f, _ = _inputs(args, need_f=True)
    sys_ = JacobianSystem(fan, f)
    if args.kmax is not None:
        check_k_max(fan, args.kmax)
    verdict = sys_.nondegenerate_decide()
    payload = {"decision": verdict.label, "witness": verdict.witness}
    lines = [f"chart decision: {verdict.label}"]
    if verdict.witness:
        lines.append(f"witness: {verdict.witness}")
    if args.kmax is not None:
        # a certificate implies nondegeneracy, so none exists on a degenerate section
        cert = (NondegeneracyVerdict("undetermined", k=args.kmax)
                if verdict.status == "degenerate" else sys_.saturation_certificate(args.kmax))
        payload["certificate"] = cert.label
        lines.append(f"saturation certificate: {cert.label}")
    return payload, "\n".join(lines)


def _cmd_hilbert(args):
    fan, f, D = _inputs(args, need_f=False)
    if f is None:
        raise InputError("hilbert needs the section f (--poly or --poly-file)")
    sys_ = JacobianSystem(fan, f)
    s_dim = sys_.section_dim(D)
    # only the dump needs the piece; j1_dim then reads its dimension
    piece = sys_.j1_piece(D) if args.dump_subspaces else None
    j1_dim = sys_.j1_dim(D)
    payload = {
        "divisor": list(D.coeffs),
        "class": list(pic_class(fan, D).vec),
        "dim_S": s_dim,
        "dim_J1": j1_dim,
        "dim_R1": s_dim - j1_dim,
    }
    lines = [f"divisor: {tuple(D.coeffs)}  class {pic_class(fan, D).vec}",
             f"dim S  = {s_dim}",
             f"dim J1 = {j1_dim}",
             f"dim R1 = {s_dim - j1_dim}"]
    if args.dump_subspaces:
        payload["J1_subspace"] = piece.to_dict()
        lines.append("J1 echelon basis:")
        for row in piece.rows:
            lines.append("  [" + ", ".join(str(x) for x in row) + "]")
        lines.append("ambient monomials: " +
                     " ".join(fan.monomial_label(e) for e in piece.ambient))
    return payload, "\n".join(lines)


def _cmd_criterion(args):
    fan, f, beta = _inputs(args, need_f=True)
    quick = args.command == "quick-criterion"
    report = (quick_criterion if quick else evaluate)(fan, beta, f)
    return report.to_dict(), report.to_text()


def _cmd_find_eta(args):
    fan, f, beta = _inputs(args, need_f=True)
    result = find_rank_g_deformation(fan, beta, f,
                                     attempts=args.attempts, seed=args.seed)
    payload = result.to_dict()
    lines = [f"genus g = {result.genus}",
             f"seed = {result.seed}",
             f"attempts used = {result.attempts_used}"]
    if result.found:
        lines.append(f"found: yes  (rank {result.rank})")
        lines.append(f"eta = {result.eta.to_text()}")
    else:
        lines.append(f"found: no  (best rank {result.rank})")
    return payload, "\n".join(lines)


def _cmd_paper_table(args):
    if args.dmin < 4 or args.dmax < args.dmin:
        raise InputError("need 4 <= dmin <= dmax")
    rows = trigonal_family_table(range(args.dmin, args.dmax + 1))
    header = f"{'d':>3} {'S_beta':>7} {'J1_beta':>8} {'R1_beta':>8} " \
             f"{'g':>4} {'bound':>6}  verdict"
    lines = [header]
    for row in rows:
        lines.append(f"{row['d']:>3} {row['S_beta']:>7} {row['J1_beta']:>8} "
                     f"{row['R1_beta']:>8} {row['genus']:>4} "
                     f"{row['bound_value']:>6}  {row['verdict']}")
    return rows, "\n".join(lines)


# name: (handler, help line, options).  A handler returns (JSON payload, text);
# every command also takes --json.
_COMMANDS = {
    "describe-surface": (_cmd_describe, "rays, cones, intersection data", SURFACE),
    "basis": (_cmd_basis, "monomial basis of a graded piece", (*SURFACE, *CLASS_OF, *POLY)),
    "nondegenerate": (_cmd_nondegenerate, "chart decision, optional certificate", (
        *SURFACE, *POLY,
        _opt("--kmax", type=int, default=None,
             help="also try the saturation certificate up to this power"))),
    "hilbert": (_cmd_hilbert, "dimensions of S, J1 and R1 at a class", (
        *SURFACE, *CLASS_OF, *POLY,
        _opt("--dump-subspaces", action="store_true",
             help="include the echelon basis of the J1 piece"))),
    "criterion": (_cmd_criterion, "full certification report", (*SURFACE, *CLASS, *POLY)),
    "quick-criterion": (_cmd_criterion, "threshold form of the criterion",
                        (*SURFACE, *CLASS, *POLY)),
    "find-eta": (_cmd_find_eta, "search for a rank-g deformation class", (
        *SURFACE, *CLASS, *POLY,
        _opt("--attempts", type=int, default=DEFAULT_ATTEMPTS),
        _opt("--seed", type=int, default=DEFAULT_SEED))),
    "paper-table": (_cmd_paper_table, "dimension table of the built-in trigonal family", (
        _opt("--dmin", type=int, default=TABLE_DEGREES.start),
        _opt("--dmax", type=int, default=TABLE_DEGREES[-1]))),
}


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="toricjac",
        description="Toric Jacobian rings on smooth complete toric surfaces, "
                    "with a maximal-rank deformation criterion.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (function, help_, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--json", dest="json_out", action="store_true",
                       help="emit JSON instead of text")
        p.set_defaults(run=function, class_arg=None, class_of=None)
    return parser


def run(args):
    """Execute parsed arguments; returns the process exit code."""
    try:
        payload, text = args.run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2) if args.json_out else text)
    return 0


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    return run(args)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
