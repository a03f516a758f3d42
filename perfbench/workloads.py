"""The four workloads: what one pass does, and how its outputs are checked.

A pass is one walk over the workload's fixed list of operations, in a fixed
order, so every pass does the same work. Each operation is timed on its own;
its output is kept and checked only after the timed loop has ended.
"""

import io
import json
import re
import warnings

import numpy as np

import inputs
import oracles

TOL = 1e-12  # acceptance criterion 7


class Op:
    """One operation of a pass: `run` is timed, `collect` is not."""

    def __init__(self, label, run, collect=None, probe=False):
        self.label = label
        self.run = run
        self.collect = collect or (lambda result: result)
        self.probe = probe


class Workload:
    name = ""

    def __init__(self, root, seed, workdir):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.docs = {}

    def bundled_doc(self, name):
        path = self.root / "src" / "mwlab" / "data" / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def prepare(self):
        """Make the seeded inputs; returns the system tokens set-up loads."""
        raise NotImplementedError

    def load(self, mwlab):
        """Load and validate the systems in this process; build the ops."""
        raise NotImplementedError

    def check(self, mwlab, outputs):
        """Check the first pass's outputs: (problems, labels of failed ops)."""
        raise NotImplementedError


def _load(mwlab, token):
    if token.endswith(".json"):
        return mwlab.parse_spec(token)
    return mwlab.load_bundled(token)


# --- CLI helpers ---------------------------------------------------------------


def cli_call(cli, argv):
    """Run mwlab.cli.main in-process; returns (rc, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue(), tuple(
        f"{w.category.__name__}: {w.message}" for w in caught)


_COMPUTED = re.compile(r"computed depth-(\d+) approximation: (\d+) points, "
                       r"error bound (\S+)")


def _read(path):
    return path.read_bytes() if path.exists() else None


# --- attractor-sweep -----------------------------------------------------------


ATTRACTOR_DEPTHS = (("squares_z2", 10), ("penrose", 15), ("two_part_dust", 21),
                    ("duplicate_map", 22), ("cantor_ifs", 21),
                    ("binary_ifs", 21))
GENERATED_DEPTH = 11
FILES_SYSTEM, FILES_DEPTH, FILES_PX = "penrose", 10, 512
# shallow depths for H(cloud_n, cloud_m) <= bound_n + bound_m
SHALLOW = {"penrose": 8, "two_part_dust": 10, "gen_a": 5, "gen_b": 5,
           "thin_cantor": 4}
PROBES = (("thin_cantor", 9), ("one_loop", 1100))


class AttractorSweep(Workload):
    name = "attractor-sweep"

    def prepare(self):
        rng = inputs.make_rng(self.seed, self.name)
        for label in ("gen_a", "gen_b"):
            self.docs[label] = inputs.generated_system(rng, label)
        self.docs["thin_cantor"] = inputs.thin_cantor()
        self.docs["one_loop"] = inputs.one_loop()
        self.paths = {}
        for label, doc in self.docs.items():
            self.paths[label] = inputs.write_doc(
                doc, self.workdir / f"{label}.json")
        for name, _ in ATTRACTOR_DEPTHS:
            self.docs[name] = self.bundled_doc(name)
        return [n for n, _ in ATTRACTOR_DEPTHS] + \
            [str(p) for p in self.paths.values()]

    def load(self, mwlab):
        import mwlab.cli as cli
        self.specs = {name: _load(mwlab, name) for name, _ in ATTRACTOR_DEPTHS}
        for label, path in self.paths.items():
            self.specs[label] = _load(mwlab, str(path))
        self.csv = {label: self.workdir / f"{label}.csv"
                    for label in ("files", "thin_cantor", "one_loop")}
        self.png = self.workdir / "files.png"
        runs = [(name, [name, "--depth", str(d)], d, ())
                for name, d in ATTRACTOR_DEPTHS]
        runs += [(label, [str(self.paths[label]), "--depth",
                          str(GENERATED_DEPTH)], GENERATED_DEPTH, ())
                 for label in ("gen_a", "gen_b")]
        runs.append(("files", [FILES_SYSTEM, "--depth", str(FILES_DEPTH),
                               "--csv", str(self.csv["files"]),
                               "--png", str(self.png), "--px", str(FILES_PX)],
                     FILES_DEPTH, (self.csv["files"], self.png)))
        runs += [(label, [str(self.paths[label]), "--depth", str(d),
                          "--csv", str(self.csv[label])], d, (self.csv[label],))
                 for label, d in PROBES]
        self.depths = {label: d for label, _, d, _ in runs}
        self.ops = []
        for label, argv, _, files in runs:
            def run(argv=argv, files=files):
                for f in files:
                    if f.exists():
                        f.unlink()
                return cli_call(cli, ["attractor"] + argv)

            def collect(result, files=files):
                return result + tuple(_read(f) for f in files)
            self.ops.append(Op(label, run, collect,
                               probe=label in dict(PROBES)))
        return self.ops

    def _shallow(self, mwlab, label):
        approx = mwlab.invariant_list(self.specs[label], SHALLOW[label])
        return ({v: c.points for v, c in approx.clouds.items()},
                approx.error_bound)

    def _check_cloud(self, mwlab, label, clouds, bound):
        system = label if label in self.docs else FILES_SYSTEM
        if system in oracles.EXACT_SETS:
            return oracles.check_cloud_exact(system, clouds, bound)
        shallow, shallow_bound = self._shallow(mwlab, system)
        return oracles.check_cloud_triangle(label, clouds, bound, shallow,
                                            shallow_bound)

    def check(self, mwlab, outputs):
        problems, failed = [], []
        for op, output in zip(self.ops, outputs):
            label = op.label
            rc, out, err, caught = output[:4]
            if op.probe:
                if not self._probe_passes(mwlab, label, output):
                    failed.append(label)
                continue
            if rc != 0 or err or caught:
                problems.append(f"{label}: exit {rc}, stderr {err!r}, "
                                f"warnings {list(caught)}")
                continue
            match = _COMPUTED.search(out)
            if not match:
                problems.append(f"{label}: no summary line in {out!r}")
                continue
            depth, points, bound_text = match.groups()
            system = FILES_SYSTEM if label == "files" else label
            approx = mwlab.invariant_list(self.specs[system], int(depth))
            if int(depth) != self.depths[label] or \
                    int(points) != approx.total_points() or \
                    bound_text != repr(approx.error_bound):
                problems.append(f"{label}: CLI summary {match.group(0)!r} "
                                f"disagrees with the library's cloud")
            bound = approx.error_bound
            if not bound > 0:
                problems.append(f"{label}: certificate {bound!r} is not positive")
            clouds = {v: c.points for v, c in approx.clouds.items()}
            del approx
            if label == "files":
                problems += self._check_files(label, output, clouds, bound)
            problems += self._check_cloud(mwlab, label, clouds, bound)
        return problems, failed

    def _check_files(self, label, output, clouds, bound):
        problems = []
        csv_bytes, png_bytes = output[4], output[5]
        if csv_bytes is None or png_bytes is None:
            return [f"{label}: CSV or PNG was not written"]
        fields, csv_clouds = oracles.parse_csv(csv_bytes.decode("utf-8"))
        doc = self.docs[FILES_SYSTEM]
        paths = oracles.path_count(oracles.vertex_matrix(doc), FILES_DEPTH)
        rows = sum(len(p) for p in csv_clouds.values())
        if int(fields["paths"]) != paths:
            problems.append(f"{label}: CSV header paths={fields['paths']}, "
                            f"row sums of A^n give {paths}")
        if int(fields["points"]) != rows or \
                int(fields["deduplicated"]) != paths - rows:
            problems.append(f"{label}: CSV header counts disagree with its rows")
        if fields["error_bound"] != repr(bound):
            problems.append(f"{label}: CSV certificate {fields['error_bound']}")
        if set(csv_clouds) != set(clouds) or any(
                not np.array_equal(csv_clouds[v], clouds[v]) for v in clouds):
            problems.append(f"{label}: CSV rows differ from the library's cloud")
        width, height = oracles.png_size_from_boxes(doc, FILES_PX)
        problems += [f"{label}: {p}" for p in
                     oracles.check_png(png_bytes, width, height, rows)]
        return problems

    def _probe_passes(self, mwlab, label, output):
        """Exit 0 with a positive certificate, no warning and a cloud the
        oracle confirms; or exit 3 with a named resource error."""
        rc, out, err, caught, csv_bytes = output
        if rc == 3:
            return err.startswith("resource error:")
        if rc != 0 or caught or err or csv_bytes is None:
            return False
        match = _COMPUTED.search(out)
        if not match or not float(match.group(3)) > 0:
            return False
        fields, clouds = oracles.parse_csv(csv_bytes.decode("utf-8"))
        bound = float(fields["error_bound"])
        if label in SHALLOW:
            shallow, shallow_bound = self._shallow(mwlab, label)
            return not oracles.check_cloud_triangle(label, clouds, bound,
                                                    shallow, shallow_bound)
        # one_loop: the attractor is the fixed point 1/2 of x/2 + 1/4
        return all(float(np.abs(p - 0.5).max()) <= bound
                   for p in clouds.values())


# --- report-json ---------------------------------------------------------------


REPORT_DEPTHS = (("squares_z2", 8), ("penrose", 12), ("two_part_dust", 14),
                 ("duplicate_map", 14), ("cantor_ifs", 13), ("binary_ifs", 14))
REPORT_GENERATED_DEPTH = 9
REPORT_TOL = 1e-6  # the CLI default


class ReportJson(Workload):
    name = "report-json"

    def prepare(self):
        rng = inputs.make_rng(self.seed, self.name)
        self.paths = {}
        for label in ("gen_a", "gen_b"):
            self.docs[label] = inputs.generated_system(rng, label)
            self.paths[label] = inputs.write_doc(
                self.docs[label], self.workdir / f"{label}.json")
        for name, _ in REPORT_DEPTHS:
            self.docs[name] = self.bundled_doc(name)
        return [n for n, _ in REPORT_DEPTHS] + \
            [str(p) for p in self.paths.values()]

    def load(self, mwlab):
        import mwlab.cli as cli
        for name, _ in REPORT_DEPTHS:
            _load(mwlab, name)
        for path in self.paths.values():
            _load(mwlab, str(path))
        runs = [(name, name, d) for name, d in REPORT_DEPTHS]
        runs += [(label, str(self.paths[label]), REPORT_GENERATED_DEPTH)
                 for label in ("gen_a", "gen_b")]
        self.depths = {label: d for label, _, d in runs}
        self.ops = [Op(label, lambda token=token, d=d: cli_call(
            cli, ["report", token, "--depth", str(d), "--format", "json"]))
            for label, token, d in runs]
        return self.ops

    def check(self, mwlab, outputs):
        problems = []
        for op, (rc, out, err, caught) in zip(self.ops, outputs):
            if rc != 0 or err or caught:
                problems.append(f"{op.label}: exit {rc}, stderr {err!r}, "
                                f"warnings {list(caught)}")
                continue
            problems += [f"{op.label}: {p}" for p in check_report(
                op.label, self.docs[op.label], self.depths[op.label],
                json.loads(out))]
        return problems, []


def check_report(name, doc, depth, rep):
    """Check one report document against the paper's conditions and own
    recomputations."""
    problems = []
    a = oracles.vertex_matrix(doc)
    vertices = [v["id"] for v in doc["vertices"]]
    bound = rep["error_bound"]
    if rep["depth"] != depth or rep["tol"] != REPORT_TOL:
        problems.append(f"depth/tol {rep['depth']}/{rep['tol']}")
    paths = oracles.path_count(a, depth)
    if rep["paths_total"] != paths:
        problems.append(f"paths_total {rep['paths_total']} != {paths}")
    points = rep["points_per_vertex"]
    if list(points) != vertices or not all(1 <= n for n in points.values()) \
            or sum(points.values()) > paths:
        problems.append(f"points_per_vertex {points}")
    if not bound > 0:
        problems.append(f"certificate {bound!r} is not positive")
    residuals = rep.get("invariance_residuals", {})
    if list(residuals) != vertices:
        problems.append("missing invariance residuals")
    for v, r in residuals.items():
        if not r <= 2 * bound:
            problems.append(f"residual {r!r} at {v} exceeds 2 * {bound!r}")

    clean, irreducible, not_cyclic = oracles.graph_conditions(a)
    osc = oracles.open_set_condition(doc)
    hyp = rep["hypothesis"]
    if (hyp["no_sinks_sources"], hyp["irreducible"],
            hyp["not_cyclic_permutation"]) != (clean, irreducible, not_cyclic):
        problems.append(f"graph conditions {hyp}")
    if hyp["open_set_condition"] != osc or \
            rep["open_set_condition"]["holds"] != osc:
        problems.append(f"open set condition {hyp['open_set_condition']}, "
                        f"expected {osc}")
    if hyp["verdict"] != oracles.expected_verdict(doc):
        problems.append(f"verdict {hyp['verdict']}, expected "
                        f"{oracles.expected_verdict(doc)}")

    branch, sep = rep["branch"], rep["separation"]
    pairs = oracles.parallel_pairs(doc)
    if branch["has_parallel_pairs"] != bool(pairs):
        problems.append("has_parallel_pairs disagrees with the graph")
    problems += oracles.check_branch_points(doc, branch)
    if sep["holds"] != (branch["count"] == 0 and (
            branch["min_cograph_gap"] is None
            or branch["min_cograph_gap"] > REPORT_TOL)):
        problems.append("separation verdict disagrees with the branch scan")
    maps = oracles.doc_maps(doc)
    if pairs and all(np.array_equal(maps[e["id"]][0], maps[f["id"]][0])
                     for e, f in pairs):
        # equal linear parts: the cograph gap is exactly the translation gap
        gap = min(float(np.linalg.norm(maps[e["id"]][1] - maps[f["id"]][1]))
                  for e, f in pairs)
        if gap > 0 and abs(branch["min_cograph_gap"] - gap) > TOL:
            problems.append(f"min cograph gap {branch['min_cograph_gap']!r}, "
                            f"expected {gap!r}")

    kt = rep["graph_ktheory"]
    delta = oracles.one_minus_transpose(a)
    if kt["vertex_matrix"] != a or kt["one_minus_transpose"] != delta:
        problems.append("vertex matrix or 1 - A^t differs")
    if len(a) <= 2:
        factors = oracles.small_invariant_factors(delta)
    else:
        factors = oracles.sympy_invariant_factors(delta)
    if sorted(abs(x) for x in kt["invariant_factors"]) != sorted(factors):
        problems.append(f"invariant factors {kt['invariant_factors']}, "
                        f"expected {factors}")
    free, torsion = oracles.group_from_factors(factors)
    problems += oracles.check_group("K0", kt["K0"], free, torsion=torsion)
    problems += oracles.check_group("K1", kt["K1"], free, torsion=[])

    # statements of the paper about the bundled systems
    if name == "squares_z2":
        bps = branch["branch_points"]
        if hyp["verdict"] != "SimplePurelyInfinite" or len(bps) != 1 or \
                bps[0]["index"] != 2 or not bps[0]["certified"] or \
                bps[0]["x"]["vertex"] != "v1" or \
                max(abs(c - 0.5) for c in bps[0]["x"]["coords"]) > TOL:
            problems.append(f"squares_z2 branch points {bps}")
        if kt["K0"]["text"] != "Z/3Z" or kt["K1"]["text"] != "0":
            problems.append("squares_z2 K-groups")
    if name == "penrose" and (kt["K0"]["text"], kt["K1"]["text"]) != ("0", "0"):
        problems.append("penrose K-groups")
    if name == "duplicate_map" and rep["open_set_condition"]["holds"] is not False:
        problems.append("the open set condition must fail for duplicate_map")
    if name == "two_part_dust" and not sep["holds"]:
        problems.append("separation must hold for two_part_dust")
    return problems


# --- bimodule-identities -------------------------------------------------------


BIMODULE_DEPTHS = (("squares_z2", 6), ("penrose", 10), ("two_part_dust", 10))
SUBSAMPLE = 64      # points for E(a) = <xi0, a xi0>
TENSOR_POINTS = 8   # points for the 2-step tensor identity


class BimoduleIdentities(Workload):
    name = "bimodule-identities"
    depths = BIMODULE_DEPTHS

    def prepare(self):
        rng = inputs.make_rng(self.seed, self.name)
        self.coeffs, self.fractions = {}, {}
        for name, _ in self.depths:
            self.docs[name] = self.bundled_doc(name)
            self.coeffs[name] = inputs.bimodule_coefficients(
                rng, [e["id"] for e in self.docs[name]["edges"]])
            self.fractions[name] = [rng.random() for _ in range(SUBSAMPLE)]
        return [n for n, _ in self.depths]

    def load(self, mwlab):
        from mwlab import correspondence as cr
        self.ops = []
        for name, depth in self.depths:
            spec = _load(mwlab, name)
            self.ops += self._system_ops(mwlab, cr, name, depth, spec)
        return self.ops

    def _system_ops(self, mwlab, cr, name, depth, spec):
        coeffs = self.coeffs[name]
        state = {}
        xi0 = cr.xi_zero(spec)
        one = mwlab.SampledObservable(lambda x: 1.0, "constant")
        coord = mwlab.SampledObservable(lambda x: x.coords[0], "coordinate")
        obs = mwlab.SampledObservable(
            lambda x: oracles.observable_scalar(coeffs, x.coords), "seeded")
        xi = mwlab.CographFunction(lambda x, y, e: oracles.closed_form_scalar(
            coeffs, "xi", x.coords, y.coords, e), "closed-form xi")
        eta = mwlab.CographFunction(lambda x, y, e: oracles.closed_form_scalar(
            coeffs, "eta", x.coords, y.coords, e), "closed-form eta")
        a_xi0 = mwlab.CographFunction(lambda x, y, e: obs(x) * xi0(x, y, e))
        nested = mwlab.CographFunction(
            lambda x, y, e: cr.inner_product(spec, xi, eta, x) * xi(x, y, e))
        two_paths = {v: [p for u in spec.graph.vertices
                         for p in mwlab.paths_from(spec.graph, u, 2)
                         if p.range == v] for v in spec.graph.vertices}

        def cloud():
            state["approx"] = mwlab.invariant_list(spec, depth)
            state["points"] = cr.sample_points(state["approx"])
            n = len(state["points"])
            state["sub"] = [state["points"][int(f * n)]
                            for f in self.fractions[name]]
            return state["approx"]

        def tensor():
            out = []
            for y in state["sub"][:TENSOR_POINTS]:
                lhs = 0j
                for p in two_paths[y.vertex]:
                    lhs += (cr.tensor_eval(spec, [xi, eta], p, y.array())
                            .conjugate()
                            * cr.tensor_eval(spec, [eta, xi], p, y.array()))
                out.append((lhs, cr.inner_product(spec, eta, nested, y)))
            return out

        ops = [
            ("cloud", cloud, lambda approx: (
                {v: c.points for v, c in approx.clouds.items()},
                approx.error_bound)),
            ("unit", lambda: [cr.inner_product(spec, xi0, xi0, y)
                              for y in state["points"]], None),
            ("expect_one", lambda: [cr.expectation(spec, one, y)
                                    for y in state["points"]], None),
            ("closed", lambda: [cr.inner_product(spec, xi, eta, y)
                                for y in state["points"]], None),
            ("expect_vs_inner", lambda: [
                (cr.expectation(spec, obs, y),
                 cr.inner_product(spec, xi0, a_xi0, y))
                for y in state["sub"]], None),
            ("norms", lambda: (cr.norm_two(spec, state["approx"], xi),
                               cr.norm_inf(spec, state["approx"], xi)), None),
            ("tensor", tensor, None),
            ("invariant", lambda: (
                cr.is_invariant(spec, one, 2, state["approx"], TOL),
                cr.is_invariant(spec, coord, 2, state["approx"], TOL)), None),
        ]
        return [Op(f"{name}/{label}", run, collect)
                for label, run, collect in ops]

    def check(self, mwlab, outputs):
        problems = []
        results = {op.label: out for op, out in zip(self.ops, outputs)}
        for name, _ in self.depths:
            problems += [f"{name}: {p}" for p in self._check_system(
                name, {k.split("/", 1)[1]: v for k, v in results.items()
                       if k.startswith(name + "/")})]
        return problems, []

    def _check_system(self, name, r):
        problems = []
        doc, coeffs = self.docs[name], self.coeffs[name]
        clouds, _ = r["cloud"]
        order = sorted(clouds)  # sample_points walks vertices in sorted order
        n_points = sum(len(clouds[v]) for v in order)
        for key in ("unit", "expect_one", "closed"):
            if len(r[key]) != n_points:
                problems.append(f"{key}: {len(r[key])} values for "
                                f"{n_points} points")
                return problems
        unit = np.array(r["unit"])
        if np.abs(unit - 1).max() > TOL:
            problems.append(f"<xi0, xi0> - 1 reaches {np.abs(unit - 1).max()!r}")
        expect = np.array(r["expect_one"])
        if np.abs(expect - 1).max() > TOL:
            problems.append(f"E(1) - 1 reaches {np.abs(expect - 1).max()!r}")
        recomputed = oracles.inner_products_numpy(doc, coeffs, clouds, order)
        gap = float(np.abs(np.array(r["closed"]) - recomputed).max())
        if gap > TOL:
            problems.append(f"<xi, eta> differs from the numpy recomputation "
                            f"by {gap!r}")
        lhs, rhs = (np.array(x) for x in zip(*r["expect_vs_inner"]))
        if np.abs(lhs - rhs).max() > TOL:
            problems.append("E(a) != <xi0, a xi0>")
        n2, ninf = r["norms"]
        root_e = len(doc["edges"]) ** 0.5
        if not (ninf <= n2 + TOL and n2 <= root_e * ninf + TOL):
            problems.append(f"norm chain fails: inf {ninf!r}, two {n2!r}")
        e2, einf = oracles.norms_numpy(doc, coeffs, clouds)
        if abs(e2 - n2) > TOL or abs(einf - ninf) > TOL:
            problems.append(f"norms ({n2!r}, {ninf!r}) differ from the numpy "
                            f"recomputation ({e2!r}, {einf!r})")
        for lhs, rhs in r["tensor"]:
            if abs(lhs - rhs) > TOL:
                problems.append(f"2-step tensor identity off by {abs(lhs - rhs)!r}")
                break
        if r["invariant"] != (True, False):
            problems.append(f"is_invariant gave {r['invariant']}, "
                            f"expected (True, False)")
        return problems


# --- ktheory-moves -------------------------------------------------------------


SYMPY_MAX = 12  # largest size compared against sympy's Smith normal form


class KtheoryMoves(Workload):
    name = "ktheory-moves"

    def prepare(self):
        rng = inputs.make_rng(self.seed, self.name)
        bundled = []
        for name in inputs.BUNDLED:
            self.docs[name] = self.bundled_doc(name)
            bundled.append((name, oracles.vertex_matrix(self.docs[name])))
        self.cases = inputs.ktheory_cases(rng, bundled)
        return list(inputs.BUNDLED)

    def load(self, mwlab):
        from mwlab.reports import ktheory_summary
        for name in inputs.BUNDLED:
            _load(mwlab, name)
        self.ops = []
        for label, a in self.cases:
            m = mwlab.IntMatrix(a)
            n = len(a)
            delta = mwlab.IntMatrix(oracles.one_minus_transpose(a))

            def exact(delta=delta, n=n):
                zn = mwlab.Presentation.free(n)
                zero = mwlab.Presentation.trivial()
                coker = mwlab.Presentation(n, delta)
                seq = [mwlab.GroupHom(zero, zn, mwlab.IntMatrix.zeros(n, 0)),
                       mwlab.GroupHom(zn, zn, delta),
                       mwlab.GroupHom(zn, coker, mwlab.IntMatrix.identity(n)),
                       mwlab.GroupHom(coker, zero, mwlab.IntMatrix.zeros(0, n))]
                return mwlab.check_exact(seq).exact

            self.ops += [
                Op(f"{label}/summary", lambda m=m: ktheory_summary(m)),
                Op(f"{label}/groups", lambda m=m: mwlab.graph_algebra_ktheory(m),
                   lambda kt: (str(kt.K0), str(kt.K1))),
                Op(f"{label}/exact", exact),
            ]
        return self.ops

    def check(self, mwlab, outputs):
        problems = []
        results = {op.label: out for op, out in zip(self.ops, outputs)}
        groups = {}
        for label, a in self.cases:
            summary = results[f"{label}/summary"]
            groups[label] = (summary["K0"]["text"], summary["K1"]["text"])
            problems += [f"{label}: {p}" for p in self._check_case(
                mwlab, a, summary, results[f"{label}/groups"],
                results[f"{label}/exact"])]
        for label, _ in self.cases:
            base = inputs.base_label(label)
            if groups[label] != groups[base]:
                problems.append(f"{label}: K-groups {groups[label]} differ from "
                                f"{base}'s {groups[base]}")
        return problems, []

    def _check_case(self, mwlab, a, summary, kt_groups, exact):
        problems = []
        n = len(a)
        delta = oracles.one_minus_transpose(a)
        det, nullity = oracles.expected_ktheory(a)
        if summary["vertex_matrix"] != a or summary["one_minus_transpose"] != delta:
            problems.append("vertex matrix or 1 - A^t differs")
        snf = mwlab.smith_normal_form(mwlab.IntMatrix(delta))
        u, d, v = snf.U.to_lists(), snf.D.to_lists(), snf.V.to_lists()
        problems += oracles.check_smith("SNF", delta, u, d, v)
        factors = [d[i][i] for i in range(n)]
        if summary["invariant_factors"] != factors:
            problems.append("summary invariant factors differ from the SNF")
        k0, k1 = summary["K0"], summary["K1"]
        problems += oracles.check_group("K0", k0, nullity,
                                        order=det if det else None)
        problems += oracles.check_group("K1", k1, nullity, torsion=[])
        free, torsion = oracles.group_from_factors(factors)
        problems += oracles.check_group("K0", k0, free, torsion=torsion)
        if n <= SYMPY_MAX:
            expected = oracles.group_from_factors(
                oracles.sympy_invariant_factors(delta))
            if (k0["free_rank"], list(k0["torsion"])) != \
                    (expected[0], expected[1]):
                problems.append(f"K0 {k0['text']} differs from sympy's "
                                f"{expected}")
        if kt_groups != (k0["text"], k1["text"]):
            problems.append(f"graph_algebra_ktheory gave {kt_groups}")
        if exact != (det != 0):
            problems.append(f"check_exact gave {exact} on 0 -> Z^n -> Z^n -> "
                            f"coker -> 0 with det(1 - A^t) = {det}")
        return problems


WORKLOADS = {w.name: w for w in (AttractorSweep, ReportJson,
                                 BimoduleIdentities, KtheoryMoves)}
