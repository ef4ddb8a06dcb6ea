"""Inputs of the four benchmark workloads and the checks on their outputs.

An operation is one ``toricjac`` command line (the argv after the program
name).  A workload is one pass, a list of operations that a run repeats in
order; each operation carries the check its output must pass.  Inputs
depend only on the workload name and the seed; the program sees nothing
but the generated command lines.
"""

import hashlib
import json
import random
import shlex
from fractions import Fraction

# The one README example that runs the saturation certificate up to k = 9.
SATURATION_FLAG = "--kmax"

# (surface, Hirzebruch parameter r, class (a, b), number of sections) of
# the dense generic sections; every section has its own coefficients.
CRITERION_SECTIONS = (("p1xp1", 0, (4, 4), 2), ("hirzebruch:1", 1, (7, 3), 3))
FIND_ETA_SECTIONS = (("p1xp1", 0, (4, 4), 1), ("hirzebruch:1", 1, (6, 3), 1))

NONZERO_COEFFS = tuple(k for k in range(-9, 10) if k)

WORKLOADS = ("readme", "saturation", "generic-criterion", "generic-find-eta")

# Workloads whose output depends on the class and not on the section: all
# their sections of one class share an op key, so they must print the same
# text, and the stored digest of each class holds at every seed.
CLASS_KEYED = ("generic-criterion",)


class CheckFailed(Exception):
    """An operation's output did not match what the workload expects."""


def readme_examples(readme_text):
    """(argv, expected stdout lines) of every ``$ toricjac`` console example."""
    examples = []
    inside = False
    current = None
    for line in readme_text.splitlines():
        if line.startswith("```"):
            inside = line.strip() == "```console"
            current = None
            continue
        if not inside:
            continue
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            current = None
            if argv and argv[0] == "toricjac":
                current = (argv[1:], [])
                examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


def split_readme_examples(examples):
    """Route the ``--kmax`` example to saturation and the rest to readme."""
    readme, saturation = [], []
    for argv, expected in examples:
        (saturation if SATURATION_FLAG in argv else readme).append((argv, expected))
    return readme, saturation


def _monomials(r, a, b):
    """Exponent tuples (e1..e4) of class a*D1 + b*D2 on hirzebruch:r.

    With rays x1=(-1,r), x2=(0,1), x3=(1,0), x4=(0,-1) the monomial
    x1^e1 x2^e2 x3^e3 x4^e4 has class (e1 + e3 + r*e4) D1 + (e2 + e4) D2.
    """
    out = []
    for e4 in range(b + 1):
        e2 = b - e4
        rest = a - r * e4
        for e1 in range(rest + 1):
            out.append((e1, e2, rest - e1, e4))
    return sorted(out)


def _monomial_text(exps):
    return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(exps) if e)


def _edges(monomials):
    """The monomials on each edge of the polygon, in order along the edge.

    Edge i is where x_{i+1} has exponent 0.  Along an edge every exponent
    is constant or monotone, so the sorted order is the order on the edge.
    """
    return [[m for m in monomials if m[i] == 0] for i in range(4)]


def _poly_rem(u, v):
    """Remainder of u by v, as coefficient lists from the constant term up."""
    u = list(u)
    while len(u) >= len(v):
        c = u[-1] / v[-1]
        shift = len(u) - len(v)
        for i, x in enumerate(v):
            u[shift + i] -= c * x
        u.pop()
    while u and not u[-1]:
        u.pop()
    return u


def squarefree(coeffs):
    """Whether sum coeffs[i] * t^i (top coefficient nonzero) has no repeated root."""
    p = [Fraction(c) for c in coeffs]
    q = [i * c for i, c in enumerate(p)][1:]
    while q:
        p, q = q, _poly_rem(p, q)
    return len(p) == 1


def dense_section_text(r, a, b, rng):
    """Every monomial of the class with a nonzero coefficient in [-9, 9].

    Such small coefficients sometimes give an edge polynomial a repeated
    root, which makes the section degenerate, and then the criterion
    cannot certify it.  Those draws are rejected and drawn again, so every
    seed yields sections that are nondegenerate on the boundary.  The test
    is plain Fraction arithmetic, independent of toricjac.
    """
    monomials = _monomials(r, a, b)
    while True:
        coeffs = {m: rng.choice(NONZERO_COEFFS) for m in monomials}
        if all(squarefree([coeffs[m] for m in edge]) for edge in _edges(monomials)):
            break
    text = ""
    for exps in monomials:
        c = coeffs[exps]
        term = f"{abs(c)}*{_monomial_text(exps)}"
        if text:
            text += f" {'-' if c < 0 else '+'} {term}"
        else:
            text = f"-{term}" if c < 0 else term
    return text


def generic_ops(command, sections, seed, class_keyed):
    """(op key, argv) of one ``--json`` command per generated section.

    The op key names the class, and also the section unless class_keyed.
    """
    rng = random.Random(f"{command}:{seed}")
    ops = []
    for surface, r, (a, b), count in sections:
        for i in range(count):
            poly = dense_section_text(r, a, b, rng)
            key = f"{command} {surface} {a},{b}"
            ops.append((key if class_keyed else f"{key} #{i}",
                        [command, "--surface", surface, "--class", f"{a},{b}",
                         "--poly", poly, "--json"]))
    return ops


def fraction_rank(rows):
    """Rank by plain Fraction elimination, independent of toricjac.linalg."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        for i in range(rank + 1, len(work)):
            c = work[i][col] / lead[col]
            if c:
                work[i] = [x - c * y for x, y in zip(work[i], lead)]
        rank += 1
    return rank


def check_readme_output(expected_lines, out):
    if out.splitlines() != expected_lines:
        raise CheckFailed("stdout differs from the README example")


def check_criterion_output(out):
    report = json.loads(out)
    if report["verdict"] != "certified":
        raise CheckFailed(f"verdict {report['verdict']!r}, expected certified")


def check_find_eta_output(out):
    result = json.loads(out)
    if not result["found"] or result["rank"] != result["genus"]:
        raise CheckFailed("no rank-g deformation reported")
    matrix = [[Fraction(x) for x in row] for row in result["matrix"]]
    if fraction_rank(matrix) != result["rank"]:
        raise CheckFailed("the returned matrix does not have the reported rank")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def build_passes(workload, seed, readme_text):
    """The workload's pass: a list of (op key, argv, check).

    The op key names an operation within the workload, so that repeats of
    one operation can be compared and digests stored per operation.
    """
    readme, saturation = split_readme_examples(readme_examples(readme_text))
    if workload == "readme":
        ops = [(" ".join(argv), argv, _readme_check(expected))
               for argv, expected in readme]
        random.Random(f"readme:{seed}").shuffle(ops)
        return ops
    if workload == "saturation":
        return [(" ".join(argv), argv, _readme_check(expected))
                for argv, expected in saturation]
    class_keyed = workload in CLASS_KEYED
    if workload == "generic-criterion":
        ops = generic_ops("criterion", CRITERION_SECTIONS, seed, class_keyed)
        check = check_criterion_output
    elif workload == "generic-find-eta":
        ops = generic_ops("find-eta", FIND_ETA_SECTIONS, seed, class_keyed)
        check = check_find_eta_output
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(key, argv, check) for key, argv in ops]


def _readme_check(expected):
    return lambda out: check_readme_output(expected, out)
