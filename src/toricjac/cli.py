"""Command line front end.

Every command prints a deterministic report (text by default, JSON with
--json) and exits 0 on success, 2 on invalid input, 1 on an internal
invariant failure.
"""

import argparse
import json
import re
import sys

from .criterion import (DEFAULT_SEED, evaluate, find_rank_g_deformation,
                        quick_criterion, trigonal_family_table)
from .cox import monomial_basis, poly_from_json, poly_from_text
from .divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                       h0, intersect, pic_class, representative, PicClass)
from .errors import InputError, InternalError
from .fan import builtin_surface, fan_from_json
from .jacobian import JacobianSystem


# basis lists h0 monomials; on p1xp1 the class (2000,2000) has 4,004,001
MAX_BASIS_DIM = 100_000


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricjac",
        description="Toric Jacobian rings on smooth complete toric surfaces, "
                    "with a maximal-rank deformation criterion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_surface(p):
        p.add_argument("--surface",
                       help="builtin surface: hirzebruch:r, p2, or p1xp1")
        p.add_argument("--fan-file", help="JSON file with rays and labels")

    def add_class(p, class_of=False):
        p.add_argument("--class", dest="class_arg", metavar="COORDS",
                       help="divisor class; on Hirzebruch surfaces 'a,b' "
                            "means a*D1 + b*D2")
        if class_of:
            p.add_argument("--class-of", dest="class_of", metavar="EXPR",
                           help="class expression in beta and K, e.g. 2beta+2K")

    def add_poly(p):
        p.add_argument("--poly", help="polynomial expression, e.g. x1^5*x2^3+x4")
        p.add_argument("--poly-file", help="polynomial file (JSON or expression)")

    def add_json(p):
        p.add_argument("--json", dest="json_out", action="store_true",
                       help="emit JSON instead of text")

    p = sub.add_parser("describe-surface", help="rays, cones, intersection data")
    add_surface(p)
    add_json(p)

    p = sub.add_parser("basis", help="monomial basis of a graded piece")
    add_surface(p)
    add_class(p, class_of=True)
    add_poly(p)
    p.add_argument("--max-dim", type=int, default=MAX_BASIS_DIM,
                   help="refuse a piece of larger dimension (default %(default)s)")
    add_json(p)

    p = sub.add_parser("nondegenerate", help="chart decision, optional certificate")
    add_surface(p)
    add_poly(p)
    p.add_argument("--kmax", type=int, default=None,
                   help="also try the saturation certificate up to this power")
    add_json(p)

    p = sub.add_parser("hilbert", help="dimensions of S, J1 and R1 at a class")
    add_surface(p)
    add_class(p, class_of=True)
    add_poly(p)
    p.add_argument("--dump-subspaces", action="store_true",
                   help="include the echelon basis of the J1 piece")
    add_json(p)

    p = sub.add_parser("criterion", help="full certification report")
    add_surface(p)
    add_class(p)
    add_poly(p)
    add_json(p)

    p = sub.add_parser("quick-criterion", help="threshold form of the criterion")
    add_surface(p)
    add_class(p)
    add_poly(p)
    add_json(p)

    p = sub.add_parser("find-eta", help="search for a rank-g deformation class")
    add_surface(p)
    add_class(p)
    add_poly(p)
    p.add_argument("--attempts", type=int, default=32)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_json(p)

    p = sub.add_parser("paper-table",
                       help="dimension table of the built-in trigonal family")
    p.add_argument("--dmin", type=int, default=5)
    p.add_argument("--dmax", type=int, default=10)
    add_json(p)

    return parser


def _load_fan(args):
    if args.surface and args.fan_file:
        raise InputError("give either --surface or --fan-file, not both")
    if args.surface:
        kind = "p2" if args.surface == "p2" else "hirzebruch"
        return builtin_surface(args.surface), kind
    if args.fan_file:
        try:
            with open(args.fan_file) as fh:
                data = json.load(fh)
        except OSError as e:
            raise InputError(f"cannot read fan file: {e}") from None
        except json.JSONDecodeError as e:
            raise InputError(f"fan file is not valid JSON: {e}") from None
        return fan_from_json(data), "file"
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


def _divisor_from_class_arg(fan, kind, text):
    if kind == "hirzebruch":
        a, b = _parse_ints(text, 2, "--class")
        return divisor_from_labels(fan, {"x1": a, "x2": b})
    if kind == "p2":
        (d,) = _parse_ints(text, 1, "--class")
        return divisor_from_labels(fan, {fan.labels[0]: d})
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
    if args.poly and args.poly_file:
        raise InputError("give either --poly or --poly-file, not both")
    if args.poly:
        return poly_from_text(fan, args.poly)
    if args.poly_file:
        try:
            with open(args.poly_file) as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read polynomial file: {e}") from None
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as e:
                raise InputError(f"polynomial file is not valid JSON: {e}") from None
            return poly_from_json(fan, data)
        return poly_from_text(fan, stripped)
    raise InputError("a polynomial is required (--poly or --poly-file)")


def _beta_divisor(fan, kind, args, f=None):
    if args.class_arg is not None:
        D = _divisor_from_class_arg(fan, kind, args.class_arg)
        if f is not None and not f.is_zero():
            if f.homogeneous_class() != pic_class(fan, D):
                raise InputError("the polynomial's class does not match --class")
        return D
    if f is not None and not f.is_zero():
        return TorusDivisor(sorted(f.terms)[0])
    return None


def _emit(args, payload, text):
    if args.json_out:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_describe(args):
    fan, _ = _load_fan(args)
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
    _emit(args, payload, "\n".join(lines))
    return 0


def _query_divisor(fan, kind, args):
    """Divisor named by --class / --class-of, resolving beta when needed."""
    f = None
    if args.poly or args.poly_file:
        f = _load_poly(fan, args)
    beta = _beta_divisor(fan, kind, args, f)
    if args.class_of is not None:
        return _resolve_class_of(args.class_of, beta, canonical_divisor(fan)), f
    if beta is None:
        raise InputError("a class is required (--class, --class-of, or --poly)")
    return beta, f


def _cmd_basis(args):
    fan, kind = _load_fan(args)
    D, _ = _query_divisor(fan, kind, args)
    dim = h0(fan, D)
    if dim > args.max_dim:
        raise InputError(f"the piece has dimension {dim}, above --max-dim {args.max_dim}")
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
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_nondegenerate(args):
    fan, _ = _load_fan(args)
    f = _load_poly(fan, args)
    sys_ = JacobianSystem(fan, f)
    # the certificate checks --kmax before the chart decision runs
    cert = None if args.kmax is None else sys_.saturation_certificate(args.kmax)
    verdict = sys_.nondegenerate_decide()
    payload = {"decision": verdict.label, "witness": verdict.witness}
    lines = [f"chart decision: {verdict.label}"]
    if verdict.witness:
        lines.append(f"witness: {verdict.witness}")
    if cert is not None:
        payload["certificate"] = cert.label
        lines.append(f"saturation certificate: {cert.label}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_hilbert(args):
    fan, kind = _load_fan(args)
    D, f = _query_divisor(fan, kind, args)
    if f is None:
        raise InputError("hilbert needs the section f (--poly or --poly-file)")
    sys_ = JacobianSystem(fan, f)
    s_dim = sys_.section_dim(D)
    piece = sys_.j1_piece(D)
    payload = {
        "divisor": list(D.coeffs),
        "class": list(pic_class(fan, D).vec),
        "dim_S": s_dim,
        "dim_J1": piece.dim,
        "dim_R1": s_dim - piece.dim,
    }
    lines = [f"divisor: {tuple(D.coeffs)}  class {pic_class(fan, D).vec}",
             f"dim S  = {s_dim}",
             f"dim J1 = {piece.dim}",
             f"dim R1 = {s_dim - piece.dim}"]
    if args.dump_subspaces:
        payload["J1_subspace"] = piece.to_dict()
        lines.append("J1 echelon basis:")
        for row in piece.rows:
            lines.append("  [" + ", ".join(str(x) for x in row) + "]")
        lines.append("ambient monomials: " +
                     " ".join(fan.monomial_label(e) for e in piece.ambient))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_criterion(args, quick=False):
    fan, kind = _load_fan(args)
    f = _load_poly(fan, args)
    beta = _beta_divisor(fan, kind, args, f)
    if beta is None:
        raise InputError("a class for beta is required (--class or --poly)")
    report = quick_criterion(fan, beta, f) if quick else evaluate(fan, beta, f)
    _emit(args, report.to_dict(), report.to_text())
    return 0


def _cmd_find_eta(args):
    fan, kind = _load_fan(args)
    f = _load_poly(fan, args)
    beta = _beta_divisor(fan, kind, args, f)
    if beta is None:
        raise InputError("a class for beta is required (--class or --poly)")
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
        lines.append(f"found: no  (best rank {result.best_rank})")
    _emit(args, payload, "\n".join(lines))
    return 0


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
    _emit(args, rows, "\n".join(lines))
    return 0


_COMMANDS = {
    "describe-surface": _cmd_describe,
    "basis": _cmd_basis,
    "nondegenerate": _cmd_nondegenerate,
    "hilbert": _cmd_hilbert,
    "criterion": lambda args: _cmd_criterion(args, quick=False),
    "quick-criterion": lambda args: _cmd_criterion(args, quick=True),
    "find-eta": _cmd_find_eta,
    "paper-table": _cmd_paper_table,
}


def run(args):
    """Execute parsed arguments; returns the process exit code."""
    try:
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code
    return run(args)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
