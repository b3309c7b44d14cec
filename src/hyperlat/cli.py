"""Command line interface.

Every subcommand prints a header line echoing the flags it ran with, then
CSV (or a labelled text block for the structural commands).  All numeric
output that is not exactly rational uses 12 significant digits; exact
rationals are printed as num/den.  Identical flags and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from .exactla import InputError, NodeGuardExceeded
from .lattices import NAMED_LATTICES, IntegerLattice, direct_sum, load_lattice, make_named

def _fmt(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return f"{float(x):.12g}"


def parse_lattice_spec(spec: str) -> IntegerLattice:
    """Either a JSON file path or a '+'-joined list of the names that
    ``lattices.make_named`` knows, rank1 written rank1(2m).

    A spec that names no lattice raises ArgumentTypeError, which main
    reports as a usage error."""
    try:
        blocks = [("rank1", [int(tok[6:-1])]) if tok.startswith("rank1(") and tok.endswith(")")
                  else (tok, []) for tok in map(str.strip, spec.split("+"))]
        if any(name not in NAMED_LATTICES for name, _ in blocks):
            return load_lattice(spec)
        parts = [make_named(name, params) for name, params in blocks]
        return parts[0] if len(parts) == 1 else direct_sum(*parts)
    except FileNotFoundError:
        raise argparse.ArgumentTypeError(
            f"--lattice {spec!r} is neither a '+'-joined list of U, E8, E8(-1), "
            "K3 and rank1(2m) nor a lattice file") from None
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"--lattice {spec!r}: {exc}") from None


def parse_gamma(text: str | None, L: IntegerLattice) -> tuple[int, ...]:
    """Residues in D(L), one per invariant factor; the zero class when empty."""
    from .fqm import discriminant_group

    D = discriminant_group(L)
    if not text:
        return D.zero
    try:
        gamma = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--gamma wants comma-separated integers, got {text!r}") from None
    if len(gamma) != D.ngens:
        raise argparse.ArgumentTypeError(
            f"--gamma expects {D.ngens} residues, one per invariant factor "
            f"({' '.join(map(str, D.invariant_factors)) or 'none'}), got {len(gamma)}")
    return D.reduce(gamma)


def parse_fraction(text: str, flag: str) -> Fraction:
    """The rational number a flag names, such as 3, -1/2 or 0.25; anything
    else raises ArgumentTypeError, which main reports as a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{flag} wants a rational number, got {text!r}") from None


def _flag_type(convert, wants: str, ok=lambda value: True):
    """An argparse type: convert(text), refused where that fails or ok(value) is false."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"wants {wants}, got {text!r}")
    return parse


_NATURAL = _flag_type(int, "an integer >= 0", lambda value: value >= 0)
_POSITIVE = _flag_type(int, "an integer >= 1", lambda value: value >= 1)
_FINITE = _flag_type(float, "a finite number", math.isfinite)
# --p-rows 'a,b,...;c,d,...'; None when empty
_ROWS = _flag_type(lambda text: [[int(x) for x in row.split(",")]
                                 for row in text.split(";")] if text else None,
                   "integer rows 'a,b,...;c,d,...'")


def _header(args, keys) -> str:
    parts = [f"{k.replace('_', '-')}={getattr(args, k)}" for k in keys]
    return "# " + " ".join(parts)


def cmd_lattice(args, out):
    L = parse_lattice_spec(args.lattice)
    print(_header(args, ["lattice"]), file=out)
    sig = L.signature()
    print(f"name,{L.name or ''}", file=out)
    print(f"rank,{L.rank}", file=out)
    print(f"det,{L.det}", file=out)
    print(f"signature,({sig.positive},{sig.negative})", file=out)
    for row in L.gram:
        print("gram," + ",".join(str(x) for x in row), file=out)
    return 0


def cmd_fqm(args, out):
    from .fqm import discriminant_group

    L = parse_lattice_spec(args.lattice)
    text = discriminant_group(L).dump_text()
    print(_header(args, ["lattice"]), file=out)
    print(text, file=out)
    return 0


def cmd_weil(args, out):
    from .fqm import discriminant_group
    from .weil import WeilAction, dump_matrix, rows_S, rows_T, verify_relations

    L = parse_lattice_spec(args.lattice)
    w = WeilAction(discriminant_group(L), L.signature(), dual=args.dual)
    report = verify_relations(w)
    print(_header(args, ["lattice", "dual"]), file=out)
    print(f"# relations unitarity={report['unitarity']:.3e} "
          f"braid={report['braid']:.3e} t_order={report['t_order']:.3e} "
          f"level={report['level']}", file=out)
    for name, rows in (("T", rows_T(w)), ("S", rows_S(w))):
        print(f"matrix,{name}", file=out)
        dump_matrix(rows, out)
    return 0


def cmd_theta(args, out):
    from .qseries import theta_series

    L = parse_lattice_spec(args.lattice)
    series = theta_series(L, parse_fraction(args.order, "--order"))
    print(_header(args, ["lattice", "order"]), file=out)
    print(series.dump_csv(), file=out)
    return 0


def cmd_cusp(args, out):
    from .cusps import find_isotropic_planes

    L = parse_lattice_spec(args.lattice)
    data = find_isotropic_planes(L, args.bound)
    print(_header(args, ["lattice", "bound"]), file=out)
    print("index,plane_rows,imprimitivity,kf_gram,strongly_primitive,det_identity",
          file=out)
    for i, d in enumerate(data):
        rows = ";".join(" ".join(str(x) for x in r) for r in d.plane_basis)
        kf = ";".join(" ".join(str(x) for x in r) for r in d.kf_lattice.gram)
        det_ok = abs(L.det) == abs(d.kf_lattice.det) * d.imprimitivity ** 2
        print(f"{i},{rows},{d.imprimitivity},{kf},"
              f"{d.strongly_primitive},{det_ok}", file=out)
    return 0


def cmd_density(args, out):
    from .densities import local_density

    L = parse_lattice_spec(args.lattice)
    gamma = parse_gamma(args.gamma, L)
    n = parse_fraction(args.n, "--n")
    rep = local_density(gamma, n, L, args.prime)
    print(_header(args, ["lattice", "gamma", "n", "prime"]), file=out)
    print("prime,s0,density,raw_counts", file=out)
    raw = ";".join(str(c) for c in rep.raw_counts)
    print(f"{rep.prime},{rep.stabilization_exponent},{_fmt(rep.density)},{raw}",
          file=out)
    return 0


def cmd_eis(args, out):
    from .densities import eisenstein_coefficient
    from .fqm import discriminant_group

    L = parse_lattice_spec(args.lattice)
    gamma = parse_gamma(args.gamma, L)
    D = discriminant_group(L)
    # gamma's place in D.elements() by mixed radix, the last residue fastest
    gamma_index = 0
    for g, d in zip(gamma, D.invariant_factors):
        gamma_index = gamma_index * d + g
    frac = (-D.q_value(gamma)) % 1
    n = frac if frac > 0 else Fraction(1)
    # every row is computed before the first line is printed, so a refused
    # norm leaves stdout empty
    rows = []
    while n <= args.nmax:
        c = eisenstein_coefficient(gamma, n, L, args.prime_bound)
        factors = ""
        if c.series is not None:
            factors = ";".join(f"{p}={r.density.numerator}/{r.density.denominator}"
                               for p, r in sorted(c.series.factors.items()))
        val = _fmt(c.exact) if c.exact is not None else _fmt(c.value)
        rows.append(f"{gamma_index},{n.numerator},{n.denominator},{val},"
                    f"{args.prime_bound},{factors}")
        n += 1
    print(_header(args, ["lattice", "gamma", "nmax", "prime_bound"]), file=out)
    print("gamma_index,n_num,n_den,c_value,prime_bound,local_factors", file=out)
    for row in rows:
        print(row, file=out)
    return 0


def cmd_count(args, out):
    from .hyperboloid import Window, equidistribution_run, splitting_frame

    L = parse_lattice_spec(args.lattice)
    gamma = parse_gamma(args.gamma, L)
    rho = parse_fraction(args.rho, "--rho")
    nmin, nmax = parse_fraction(args.nmin, "--nmin"), parse_fraction(args.nmax, "--nmax")
    summary = equidistribution_run(
        L, gamma, Window(splitting_frame(L), rho), nmin, nmax,
        prime_bound=args.prime_bound, samples=args.samples, seed=args.seed,
        workers=args.workers)
    print(_header(args, ["lattice", "gamma", "rho", "nmin", "nmax",
                         "prime_bound", "seed", "workers", "samples"]), file=out)
    print("n,empirical,predicted,ratio,mu_infty,ss_truncated,grazing_count",
          file=out)
    for r in summary.reports:
        print(f"{_fmt(r.n)},{r.empirical},{_fmt(r.predicted)},{_fmt(r.ratio)},"
              f"{_fmt(r.mu_infty_value)},{_fmt(r.series_value)},{r.grazing}",
              file=out)
    for n, reason in summary.skipped:
        print(f"# skipped n={_fmt(n)}: {reason}", file=out)
    halves = ""
    if summary.first_half_mean is not None and summary.second_half_mean is not None:
        halves = (f" first_half={_fmt(summary.first_half_mean)}"
                  f" second_half={_fmt(summary.second_half_mean)}")
    if summary.mean_ratio is not None:
        print(f"# mean_ratio={_fmt(summary.mean_ratio)}{halves}", file=out)
    if summary.mu_infty_mc is not None:
        est, err = summary.mu_infty_mc
        # a z-score needs a spread: one sample has none
        z = f" z={(est - summary.mu_infty) / err:.2f}" if err else ""
        print(f"# mu_infty monte_carlo={_fmt(est)} stderr={_fmt(err)} "
              f"closed_form={_fmt(summary.mu_infty)}{z}", file=sys.stderr)
    return 0


def cmd_predict(args, out):
    from .predict import PredictionInput, degree_prediction

    L = parse_lattice_spec(args.lattice)
    gamma = parse_gamma(args.gamma, L)
    boundary = ()
    if args.boundary:
        from .cusps import cusp_datum, isotropic_planes

        planes = isotropic_planes(L, args.cusp_bound)
        pairs = []
        for part in args.boundary.split(";"):
            try:
                idx, deg = (int(x) for x in part.split(":"))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"--boundary wants 'index:degree;...' with integers, got {part!r}") from None
            if not 0 <= idx < len(planes):
                raise argparse.ArgumentTypeError(
                    f"--boundary index {idx} is not one of the {len(planes)} planes "
                    f"found at --cusp-bound {args.cusp_bound}")
            pairs.append((cusp_datum(L, planes[idx]), deg))
        boundary = tuple(pairs)
    inp = PredictionInput(L, gamma, parse_fraction(args.n, "--n"), args.mu_s,
                          boundary_degrees=boundary,
                          prime_bound=args.prime_bound)
    result, rows = degree_prediction(inp)
    print(_header(args, ["lattice", "gamma", "n", "mu_s", "prime_bound",
                         "boundary"]), file=out)
    print("value,error_order,representable", file=out)
    print(f"{_fmt(result.value)},{result.error_order},{result.representable}",
          file=out)
    if boundary:
        print("# cusp corrections", file=out)
    for row in rows:
        print(f"# u={_fmt(float(row['u']))} degree={row['degree']} "
              f"order={row['sharper_order']}", file=out)
    return 0


def cmd_k3(args, out):
    from .predict import k3_lattices, k3_predict

    gamma = None
    if args.gamma:
        # gamma lives in D(V) of the complement
        gamma = parse_gamma(args.gamma, k3_lattices(args.two_d, args.p_rows)[1])
    res = k3_predict(gamma, parse_fraction(args.n, "--n"), args.mu_s,
                     two_d=args.two_d, rows=args.p_rows,
                     prime_bound=args.prime_bound)
    print(_header(args, ["two_d", "gamma", "n", "mu_s", "prime_bound"]), file=out)
    print("rho,exponent,value,representable_2n,exact_test,disc_match", file=out)
    rep = res.coset_representable
    print(f"{res.rho},{_fmt(res.exponent)},{_fmt(res.prediction.value)},"
          f"{rep.representable},{rep.exact},{res.disc_match}", file=out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Its usage errors, a subcommand's too, end in one 'hyperlat: error:' line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"hyperlat: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: parsing leaves it as it was."""
    p = _Parser(
        prog="hyperlat",
        description="Exact lattice invariants and hyperboloid point counts")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, lattice=True, gamma=False):
        sp = sub.add_parser(name, help=help_text)
        if lattice:
            sp.add_argument("--lattice", required=True)
        if gamma:
            sp.add_argument("--gamma", default="")
        sp.set_defaults(func=func)
        return sp

    command("lattice", cmd_lattice, "inspect a lattice")
    command("fqm", cmd_fqm, "discriminant group with Q values")
    sp = command("weil", cmd_weil, "Weil representation matrices")
    sp.add_argument("--dual", action="store_true")
    sp = command("theta", cmd_theta, "theta series of a definite lattice")
    sp.add_argument("--order", required=True)
    sp = command("cusp", cmd_cusp, "primitive isotropic planes and cusp data")
    sp.add_argument("--bound", type=_NATURAL, default=1)

    sp = command("density", cmd_density, "one local density with witnesses", gamma=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--prime", type=int, required=True)

    eis = command("eis", cmd_eis, "Eisenstein coefficients over a range", gamma=True)
    eis.add_argument("--nmax", type=int, required=True)

    count = command("count", cmd_count, "equidistribution experiment", gamma=True)
    count.add_argument("--rho", required=True)
    count.add_argument("--nmin", required=True)
    count.add_argument("--nmax", required=True)
    count.add_argument("--seed", type=_NATURAL, default=0,
                       help="seed of the Monte Carlo cross-check")
    count.add_argument("--workers", type=_POSITIVE, default=1,
                       help="number of Monte Carlo RNG substreams; the "
                            "substreams run one after another, not in parallel")
    count.add_argument("--samples", type=_NATURAL, default=0,
                       help="Monte Carlo samples for a cross-check of the closed-"
                            "form mu_infty, reported on stderr; 0 (the default) "
                            "skips it.  The CSV never depends on it")

    predict = command("predict", cmd_predict, "predicted count for one (gamma, n)",
                      gamma=True)
    predict.add_argument("--n", required=True)
    predict.add_argument("--mu-s", dest="mu_s", type=_FINITE, required=True)
    predict.add_argument("--boundary", default="",
                         help="cusp corrections 'index:degree;...' over planes "
                              "found at --cusp-bound")
    predict.add_argument("--cusp-bound", dest="cusp_bound", type=_NATURAL, default=1)

    k3 = command("k3", cmd_k3, "rank-22 unimodular specialization", lattice=False)
    k3.add_argument("--two-d", dest="two_d", type=int, default=None)
    k3.add_argument("--p-rows", dest="p_rows", type=_ROWS, default="",
                    help="explicit sublattice rows 'a,b,...;c,d,...'")
    k3.add_argument("--gamma", default="")
    k3.add_argument("--n", required=True)
    k3.add_argument("--mu-s", dest="mu_s", type=_FINITE, required=True)

    for sp in (eis, count, predict, k3):
        sp.add_argument("--prime-bound", dest="prime_bound", type=_NATURAL,
                        default=100)
    return p


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except (InputError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    except NodeGuardExceeded as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): stop quietly, and send
        # what is still buffered to devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
