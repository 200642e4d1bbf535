"""Command line front end over the exact modular data library."""

import argparse
import cmath
import json
import random
import sys
from math import gcd

from .galois_kernel import bantay_sigma_S_identity, enumerate_kernel, genus, image_order, sigma_covariance_check
from .modgroup import ResidueMatrix, decompose, format_matrix, lift, mat_det, parse_matrix, random_matrix
from .qseries import (
    _characters,
    log_eta_expansion_check,
    numeric_eval,
    s_transform_check,
    verify_k1_identity,
    verify_t_parametrization,
)
from .wzwrep import (
    conductor,
    dispatch_path,
    evaluate_word,
    g_parity_check,
    rho_closed,
    rho_float,
    rho_S,
    rho_T,
)

__all__ = ["run", "main"]


class UsageError(Exception):
    pass


def _complex_str(z):
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def _matrix_lines(label, mat, fmt):
    lines = []
    if fmt in ("exact", "both"):
        for i in range(mat.dim):
            for j in range(mat.dim):
                rec = json.dumps(mat.entry(i, j).to_dict())
                lines.append(f"{label} {i + 1} {j + 1} {rec}")
    if fmt in ("float", "both"):
        arr = mat.to_floats()
        for i in range(mat.dim):
            for j in range(mat.dim):
                lines.append(f"{label}_float {i + 1} {j + 1} {_complex_str(arr[i, j])}")
    return lines


def _level_n(args):
    if args.level < 1:
        raise UsageError("--level must be at least 1")
    return args.level + 2


def _cmd_st_matrices(args):
    n = _level_n(args)
    lines = [f"level {args.level}", f"n {n}", f"conductor {conductor(n)}"]
    lines += _matrix_lines("S", rho_S(n), args.format)
    lines += _matrix_lines("T", rho_T(n), args.format)
    return 0, lines


def _cmd_eval(args):
    n = _level_n(args)
    N = conductor(n)
    try:
        m = parse_matrix(args.matrix)
    except ValueError as exc:
        raise UsageError(f"bad --matrix: {exc}")
    det = mat_det(m)
    if det % N != 1 % N:
        raise UsageError(f"matrix determinant {det} is not 1 mod {N}")
    r = ResidueMatrix.from_list(N, m)
    if args.path == "closed":
        mat = rho_closed(r, n)
    else:
        mat = evaluate_word(decompose(m if det == 1 else lift(r)), n)
    lines = [
        f"level {args.level}",
        f"n {n}",
        f"conductor {N}",
        f"matrix {format_matrix(m)}",
        f"path {args.path}",
        f"dispatch {dispatch_path(r, n)}",
    ]
    lines += _matrix_lines("rho", mat, args.format)
    return 0, lines


def _cmd_kernel(args):
    report = enumerate_kernel(_level_n(args))
    lines = []
    for line in report.to_text().splitlines():
        if not args.list and line.startswith(("kernel_element", "outside_unit_d_slice")):
            continue
        lines.append(line)
    code = 0 if report.coprime_obstruction else 1
    if args.check_lists:
        if report.matches_known is None:
            lines.append("known_list_check not_applicable")
        else:
            lines.append(f"known_list_check {'pass' if report.matches_known else 'fail'}")
            if not report.matches_known:
                code = 1
    return code, lines


def _cmd_genus(args):
    try:
        return 0, [str(genus(args.prime))]
    except ValueError as exc:
        raise UsageError(f"--prime: {exc}")


def _cmd_image_order(args):
    return 0, [str(image_order(_level_n(args)))]


def _cmd_characters(args):
    n = _level_n(args)
    if args.terms < 0:
        raise UsageError("--terms must be nonnegative")
    tau = None
    if args.numeric is not None:
        try:
            tau = complex(args.numeric)
        except ValueError:
            raise UsageError(f"bad --numeric value {args.numeric!r}")
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise UsageError("--numeric tau must be finite with positive imaginary part")
    lines = [f"level {args.level}", f"n {n}"]
    for lam, s in enumerate(_characters(n, args.terms), 1):
        lead = s.leading_exponent()
        lines.append(f"chi {lam} exponent {lead.numerator}/{lead.denominator}")
        lines.append(f"chi {lam} coeffs " + " ".join(str(c) for c in s.table(args.terms + 1)))
        lines.append(f"chi {lam} series {s}")
        if tau is not None:
            lines.append(f"chi {lam} numeric {_complex_str(numeric_eval(s, tau))}")
    return 0, lines


def _check_report(lines, results):
    """Exit code and output: the header lines, a pass/fail line per (name, ok) in results, then all of them."""
    results = [*results, ("all", all(ok for _, ok in results))]
    return (0 if results[-1][1] else 1), lines + [f"{name} {'pass' if ok else 'fail'}" for name, ok in results]


def _identity_results(level, n, terms):
    """(name, ok) of the q-series identity checks shared by verify-identities and verify-all."""
    results = [("log_eta_expansion", log_eta_expansion_check(terms))]
    if level == 1:
        results.append(("k1_identity", verify_k1_identity(terms)))
        results.append(("t_parametrization", verify_t_parametrization(terms)))
    results.append(("s_transform", s_transform_check(n, 1j, truncation=300, tol=1e-8)))
    return results


def _cmd_verify_identities(args):
    n = _level_n(args)
    if args.terms < 1:
        raise UsageError("--terms must be at least 1")
    results = _identity_results(args.level, n, args.terms)
    return _check_report([f"level {args.level}", f"n {n}"], results)


def _cmd_verify_all(args):
    n = _level_n(args)
    N = conductor(n)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    rng = random.Random(args.seed)
    mats = [random_matrix(N, rng) for _ in range(args.samples)]
    # one pass over the samples: each one's rho_closed and lift-0 word are
    # computed once and serve every check of the loop
    closed_ok = unitary_ok = lift_ok = True
    for i, r in enumerate(mats):
        exact = rho_closed(r, n)
        word = evaluate_word(decompose(lift(r)), n)
        closed_ok = closed_ok and exact == word
        if i < 40:
            d = abs(exact.to_floats() - rho_float(r, n)).max()
            dev = max(dev, d) if i else d
        if i < 20:
            unitary_ok = unitary_ok and exact.is_unitary()
            lift_ok = lift_ok and word == evaluate_word(decompose(lift(r, 1)), n)
    results = [
        (f"closed_vs_word samples={args.samples}", closed_ok),
        (f"closed_vs_float dev={dev:.3e}", dev < 1e-9),
        ("unitarity", unitary_ok),
        ("lift_independence", lift_ok),
    ]

    units = [L for L in range(1, N) if gcd(L, N) == 1]
    ok = all(sigma_covariance_check(L, r, n) for L in units for r in mats[:5])
    results.append(("galois_covariance", ok))

    ok = all(bantay_sigma_S_identity(C, n) for C in units)
    results.append(("bantay_sigma_s", ok))

    if n % 2:
        results.append(("gauss_sum_parity", g_parity_check(n)))

    report = enumerate_kernel(n)
    results.append((f"kernel size={len(report.kernel)} image={report.image_order}", report.coprime_obstruction))
    if report.matches_known is not None:
        results.append(("kernel_known_list", report.matches_known))

    results += _identity_results(args.level, n, 30)

    return _check_report([f"level {args.level}", f"n {n}", f"seed {args.seed}"], results)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="affinesl2",
        description="Exact modular data of the affine sl2 representations of SL(2, Z/NZ).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p = sub.add_parser("st-matrices", parents=[common], help="print the generator matrices rho(S), rho(T)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=("exact", "float", "both"), default="both")
    p.set_defaults(func=_cmd_st_matrices)

    p = sub.add_parser("eval", parents=[common], help="evaluate rho on a matrix")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--matrix", required=True, metavar="[[a,b],[c,d]]")
    p.add_argument("--path", choices=("closed", "word"), default="closed")
    p.add_argument("--format", choices=("exact", "float", "both"), default="both")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("kernel", parents=[common], help="enumerate the kernel of rho")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print every kernel element")
    p.add_argument("--check-lists", action="store_true", help="compare against the known kernel lists")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("genus", parents=[common], help="genus of the modular curve for prime level")
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("image-order", parents=[common], help="order of the image of rho")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_image_order)

    p = sub.add_parser("characters", parents=[common], help="character q-expansions")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--numeric", metavar="TAU", help="also evaluate at tau, e.g. 0.25+1j")
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("verify-identities", parents=[common], help="check the character identities")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("verify-all", parents=[common], help="run every verification suite")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=20260101)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def run(argv=None):
    """Parse argv, run the selected subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, lines = args.func(args)
    except UsageError as exc:
        print(f"affinesl2: error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"affinesl2: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run())
