"""Reference answers and certificate checks for the benchmark.

Nothing here imports ``edgecone``: every reference is recomputed from
the benchmark's own ``Spec`` with code that shares no path with the
library.  Library results are read by attribute and tag class name only.

* Certificates (membership witnesses, decompositions, matchings, Hall
  violators) are verified directly against the graph.
* Answers that are unique by theorem (dimension, facet generator sets,
  canonical tags, full-representation normals) are compared with a
  reference built by enumerating independent sets with bitmasks and
  computing ranks combinatorially: the incidence vectors of an edge set
  have rank "touched vertices minus bipartite components" of the
  subgraph they form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

import gen
from gen import Spec


class WrongAnswer(AssertionError):
    """The library returned an answer the reference contradicts."""


def require(condition: bool, message: str):
    if not condition:
        raise WrongAnswer(message)


# ------------------------------------------------------------ references

def edge_rank(n: int, edges) -> int:
    """Rank over Q of the incidence vectors of ``edges``: touched
    vertices minus bipartite components, by a parity union-find."""
    parent = list(range(n))
    parity = [0] * n          # parity to the parent
    odd = {}                  # root -> component has an odd cycle
    touched = set()

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        root, acc = v, 0
        for u in reversed(path):
            acc ^= parity[u]
            parity[u] = acc
            parent[u] = root
        return root

    for i, j in edges:
        touched.update((i, j))
        ri, rj = find(i), find(j)
        pi, pj = parity[i] if i != ri else 0, parity[j] if j != rj else 0
        if ri == rj:
            if pi == pj:
                odd[ri] = True
        else:
            parent[rj] = ri
            parity[rj] = pi ^ pj ^ 1
            odd[ri] = odd.get(ri, False) or odd.pop(rj, False)
    roots = {find(v) for v in touched}
    bipartite = sum(1 for r in roots if not odd.get(r, False))
    return len(touched) - bipartite


class Reference:
    """Lazily computed reference answers for one graph."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.n = spec.n
        self.adj = spec.neighbors()
        self.masks = [sum(1 << w for w in a) for a in self.adj]

    # ---- structure
    @cached_property
    def components(self) -> list[tuple[tuple[int, ...], tuple | None]]:
        return gen.components(self.spec)

    @cached_property
    def bipartite_components(self) -> int:
        return sum(1 for _, s in self.components if s is not None)

    @cached_property
    def dimension(self) -> int:
        return self.n - self.bipartite_components

    def nbr(self, a) -> set[int]:
        out = set()
        for v in a:
            out |= self.adj[v]
        return out

    def is_independent(self, a) -> bool:
        s = set(a)
        return all(not (self.adj[v] & s) for v in s)

    @cached_property
    def independent_sets(self) -> list[tuple[int, ...]]:
        """Every nonempty independent set, as sorted tuples, in
        lexicographic order."""
        out = []
        n, masks = self.n, self.masks

        def grow(start, chosen, forbidden):
            for v in range(start, n):
                if not forbidden >> v & 1:
                    chosen.append(v)
                    out.append(tuple(chosen))
                    grow(v + 1, chosen, forbidden | masks[v])
                    chosen.pop()

        grow(0, [], 0)
        return out

    def set_normal(self, a) -> tuple[int, ...]:
        normal = [0] * self.n
        for v in self.nbr(a):
            normal[v] = -1
        for v in a:
            normal[v] = 1
        return tuple(normal)

    def unit(self, v: int) -> tuple[int, ...]:
        return tuple(1 if k == v else 0 for k in range(self.n))

    def balance_normal(self, k: int) -> tuple[int, ...] | None:
        sides = self.components[k][1]
        if sides is None:
            return None
        normal = [0] * self.n
        for v in sides[0]:
            normal[v] = 1
        for v in sides[1]:
            normal[v] = -1
        return tuple(normal)

    @cached_property
    def equation_normals(self) -> list[tuple[int, ...]]:
        return [self.balance_normal(k) for k, (_, s) in enumerate(self.components)
                if s is not None]

    @cached_property
    def full_normals(self) -> list[tuple[int, ...]]:
        """Normals of the full representation, in the library's order:
        coordinates by index, then independent sets lexicographically."""
        return ([self.unit(v) for v in range(self.n)]
                + [self.set_normal(a) for a in self.independent_sets])

    def on_edges(self, normal) -> tuple[int, ...]:
        return tuple(k for k, (i, j) in enumerate(self.spec.edges)
                     if normal[i] + normal[j] == 0)

    @cached_property
    def facet_groups(self) -> dict[tuple[int, ...], list[tuple]]:
        """Facet generator set -> candidate keys cutting it.  A key is
        ``(0, v, ())`` for coordinate ``v`` and ``(1, -1, A)`` for an
        independent set ``A``, which sorts like the library's tags."""
        dim = self.dimension
        groups: dict[tuple[int, ...], list[tuple]] = {}
        if dim <= 1:
            return groups
        edges = self.spec.edges
        candidates = [((0, v, ()), self.unit(v)) for v in range(self.n)]
        candidates += [((1, -1, a), self.set_normal(a)) for a in self.independent_sets]
        for key, normal in candidates:
            on = self.on_edges(normal)
            if edge_rank(self.n, [edges[k] for k in on]) == dim - 1:
                groups.setdefault(on, []).append(key)
        return groups

    @cached_property
    def facet_keys(self) -> list[tuple[tuple, tuple[int, ...]]]:
        """(preferred key, generator set) per facet, in library order."""
        return sorted((min(keys), on) for on, keys in self.facet_groups.items())

    @cached_property
    def canonical_keys(self) -> list[tuple]:
        """Canonical tag per facet of a connected bipartite graph: a
        side-2 coordinate if one cuts the facet, else the independent set
        strictly inside side 1."""
        side1, side2 = self.components[0][1]
        if self.dimension <= 1:
            return [(0, v, ()) for v in side2]
        out = []
        for keys in self.facet_groups.values():
            coords = [k for k in keys if k[0] == 0 and k[1] in side2]
            if coords:
                out.append(min(coords))
                continue
            inside = [k for k in keys if k[0] == 1 and set(k[2]) < set(side1)]
            require(len(inside) == 1, f"reference: facet without a unique side-1 tag {keys}")
            out.append(inside[0])
        return sorted(out)

    def key_normal(self, key) -> tuple[int, ...]:
        return self.unit(key[1]) if key[0] == 0 else self.set_normal(key[2])

    def contains(self, x) -> bool:
        """Membership by the inequality system, evaluated directly."""
        point = [Fraction(c) for c in x]
        if any(c < 0 for c in point):
            return False
        if any(sum(c * p for c, p in zip(eq, point)) for eq in self.equation_normals):
            return False
        return all(sum(point[v] for v in a) <= sum(point[v] for v in self.nbr(a))
                   for a in self.independent_sets)

    def non_facet_coordinates(self) -> list[tuple[int, int]]:
        """(vertex, face dimension) of coordinates that cut no facet."""
        out = []
        for v in range(self.n):
            on = self.on_edges(self.unit(v))
            rank = edge_rank(self.n, [self.spec.edges[k] for k in on])
            if self.dimension <= 1 or rank != self.dimension - 1:
                out.append((v, rank))
        return out

    def perfect_matching_exists(self) -> bool:
        """Augmenting-path maximum matching (Kuhn) on a bipartite graph."""
        sides = [s for _, s in self.components]
        left = [v for s in sides for v in s[0]]
        mate: dict[int, int] = {}

        def augment(v, seen):
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    if w not in mate or augment(mate[w], seen):
                        mate[w] = v
                        return True
            return False

        size = sum(1 for v in left if augment(v, set()))
        return 2 * size == self.n


# ---------------------------------------------------------------- checks

def check_parse(g, spec: Spec):
    require(tuple(g.vertices) == spec.labels, "parse: vertex order differs from the text")
    require(tuple(g.edges) == spec.edges, "parse: edges differ from the text")


def check_witness(ref: Reference, x, witness):
    """``witness`` (a library halfspace or hyperplane) must be a genuine
    constraint of the graph violated by ``x``."""
    require(witness is not None, "non-member without a witness")
    plane = getattr(witness, "plane", witness)
    tag = plane.tag
    kind = type(tag).__name__
    payload = {"CoordinateTag": "vertex", "IndependentSetTag": "vertices",
               "ComponentTag": "component"}.get(kind)
    require(payload is not None, f"unknown witness tag {tag!r}")
    check_constraint(ref, x, kind, getattr(tag, payload), tuple(plane.normal),
                     getattr(witness, "sense", "=0"))


def check_constraint(ref: Reference, x, kind: str, payload, normal, sense: str):
    """A coordinate or independent-set halfspace, or a bipartite
    component's balance equation, that is violated by ``x``."""
    point = [Fraction(c) for c in x]
    value = sum(c * p for c, p in zip(normal, point))
    if kind == "CoordinateTag":
        require(sense == ">=0", "coordinate witness must be a >=0 halfspace")
        require(normal == ref.unit(payload), f"coordinate witness has normal {normal}")
        require(value < 0, f"coordinate witness {payload} is not violated")
    elif kind == "IndependentSetTag":
        a = tuple(payload)
        require(a and ref.is_independent(a), f"witness set {a} is not independent")
        require(sense == "<=0", "independent-set witness must be a <=0 halfspace")
        require(normal == ref.set_normal(a), f"witness set {a} has normal {normal}")
        require(value > 0, f"witness set {a} is not violated")
    else:
        require(0 <= payload < len(ref.components), f"witness component {payload} out of range")
        expected = ref.balance_normal(payload)
        require(expected is not None, f"witness component {payload} is not bipartite")
        require(normal in (expected, tuple(-c for c in expected)),
                f"balance witness {payload} has normal {normal}")
        require(value != 0, f"balance witness {payload} is not violated")


def check_membership(ref: Reference, x, expected: bool, result):
    require(bool(result.is_member) == expected,
            f"membership({x}) = {result.is_member}, expected {expected}")
    if expected:
        require(result.violated is None, "member with a witness")
    else:
        check_witness(ref, x, result.violated)


def check_decomposition(ref: Reference, b, expected: bool, result):
    if not expected:
        require(result.decomposition is None, f"decomposed a non-member {b}")
        check_witness(ref, b, result.violated)
        return
    require(result.decomposition is not None, f"no decomposition of member {b}")
    total = [0] * ref.n
    seen = set()
    for index, count in result.decomposition.multiplicities:
        require(type(count) is int and count > 0, f"bad multiplicity {count}")
        require(0 <= index < len(ref.spec.edges) and index not in seen,
                f"bad edge index {index}")
        seen.add(index)
        i, j = ref.spec.edges[index]
        total[i] += count
        total[j] += count
    require(tuple(total) == tuple(b), f"decomposition sums to {total}, not {b}")


def check_violator(ref: Reference, a):
    require(a and ref.is_independent(a), f"violator {a} is not independent")
    require(len(set(a)) > len(ref.nbr(a)), f"violator {a} satisfies Hall's condition")


def check_matching(ref: Reference, result):
    if result.has_matching:
        covered = []
        for index in result.matching:
            require(0 <= index < len(ref.spec.edges), f"bad matching edge {index}")
            covered.extend(ref.spec.edges[index])
        require(sorted(covered) == list(range(ref.n)), "matching is not perfect")
    else:
        check_violator(ref, tuple(result.violator))


def check_dimension(ref: Reference, dim):
    require(dim == ref.dimension, f"dimension {dim}, expected {ref.dimension}")


def check_full(ref: Reference, rep):
    got = [tuple(h.plane.normal) for h in rep.halfspaces]
    require(got == ref.full_normals, f"full representation: {len(got)} halfspaces, "
            f"expected {len(ref.full_normals)} (or order/normals differ)")
    require([tuple(e.normal) for e in rep.equations] == ref.equation_normals,
            "full representation: affine hull differs")


def _key_of(tag) -> tuple:
    if type(tag).__name__ == "CoordinateTag":
        return (0, tag.vertex, ())
    return (1, -1, tuple(tag.vertices))


def check_facets(ref: Reference, facet_list):
    got = [(_key_of(f.halfspace.plane.tag), tuple(f.generators_on)) for f in facet_list]
    require(got == ref.facet_keys,
            f"facets: {len(got)} returned, {len(ref.facet_keys)} expected "
            f"(or tags/generator sets differ)")
    for f in facet_list:
        key = _key_of(f.halfspace.plane.tag)
        require(tuple(f.halfspace.plane.normal) == ref.key_normal(key),
                f"facet {key} has a wrong normal")


def check_canonical(ref: Reference, rep):
    got = [_key_of(h.plane.tag) for h in rep.halfspaces]
    require(got == ref.canonical_keys, "canonical representation: tags differ")
    for h, key in zip(rep.halfspaces, got):
        require(tuple(h.plane.normal) == ref.key_normal(key),
                f"canonical halfspace {key} has a wrong normal")
    require([tuple(e.normal) for e in rep.equations] == ref.equation_normals,
            "canonical representation: affine hull differs")


def check_report(ref: Reference, report):
    names = [c.name for c in report.checks]
    require(names == ["facets", "membership", "dimension"], f"report checks {names}")
    require(report.passed, f"cross-validation failed: {[c.detail for c in report.checks]}")
    facet_detail = report.checks[0].detail
    require(facet_detail == f"{len(ref.facet_groups)} facets agree",
            f"cross-validation facet count {facet_detail!r}, "
            f"expected {len(ref.facet_groups)}")


# ------------------------------------------------------- CLI documents

_DOC_KIND = {"coordinate": "CoordinateTag", "independent_set": "IndependentSetTag",
             "bipartite_component": "ComponentTag"}


def _doc_key(tag: dict, index: dict) -> tuple:
    if tag["kind"] == "coordinate":
        return (0, index[tag["vertex"]], ())
    require(tag["kind"] == "independent_set", f"unexpected tag {tag}")
    return (1, -1, tuple(sorted(index[v] for v in tag["vertices"])))


def _check_doc_constraint(ref: Reference, x, doc: dict, index: dict):
    require(doc is not None, "non-member without a witness")
    tag = doc["tag"]
    kind = _DOC_KIND.get(tag["kind"])
    require(kind is not None, f"unknown witness tag {tag}")
    payload = {"CoordinateTag": lambda: index[tag["vertex"]],
               "IndependentSetTag": lambda: tuple(sorted(index[v] for v in tag["vertices"])),
               "ComponentTag": lambda: tag["component"]}[kind]()
    check_constraint(ref, x, kind, payload, tuple(doc["normal"]), doc["sense"])


def _check_doc_representation(ref: Reference, rep: dict, keys: list[tuple], index: dict):
    got = [_doc_key(h["tag"], index) for h in rep["halfspaces"]]
    require(got == keys, f"{rep['kind']} representation: halfspace tags differ")
    require([tuple(h["normal"]) for h in rep["halfspaces"]]
            == [ref.key_normal(k) for k in keys], "halfspace normals differ")
    require([tuple(e["normal"]) for e in rep["equations"]] == ref.equation_normals,
            "affine hull differs")


def _check_plain(ref: Reference, call, lines: list[str]):
    stripped = [line.strip() for line in lines]
    if call.sub == "dim":
        require(f"dimension: {ref.dimension}" in stripped, "plain dim: wrong dimension")
    elif call.sub == "member":
        require(f"is_member: {call.expected}" in stripped, "plain member: wrong verdict")
    elif call.sub == "matching":
        require(f"has_perfect_matching: {ref.perfect_matching_exists()}" in stripped,
                "plain matching: wrong verdict")
    elif call.sub == "canonical":
        senses = sum(1 for line in stripped if line.startswith("sense: "))
        require(senses == len(ref.canonical_keys) + len(ref.equation_normals),
                "plain canonical: wrong number of constraints")
    else:
        raise WrongAnswer(f"no plain check for {call.sub}")


def check_cli(ref: Reference, call, stdout: str):
    """Check one ``edgecone`` subprocess's stdout against the reference."""
    spec = ref.spec
    if call.plain:
        _check_plain(ref, call, stdout.splitlines())
        return
    doc = json.loads(stdout)
    index = {label: k for k, label in enumerate(spec.labels)}
    require(doc["command"] == call.sub, "wrong command echoed")
    require(doc["vertices"] == list(spec.labels), "header vertices differ")
    require(doc["edges"] == [[spec.labels[i], spec.labels[j]] for i, j in spec.edges],
            "header edges differ")
    x = call.vector
    if x is not None:
        require(doc["vector"] == [str(Fraction(c)) for c in x], "vector echoed wrongly")
    if call.sub == "dim":
        require((doc["dimension"], doc["incidence_rank"], doc["bipartite_components"])
                == (ref.dimension, ref.dimension, ref.bipartite_components),
                "dim: wrong dimension, rank or component count")
    elif call.sub == "repr":
        rep = doc["representation"]
        require([tuple(h["normal"]) for h in rep["halfspaces"]] == ref.full_normals,
                "repr: halfspace normals differ")
        require([tuple(e["normal"]) for e in rep["equations"]] == ref.equation_normals,
                "repr: affine hull differs")
    elif call.sub == "canonical":
        _check_doc_representation(ref, doc["representation"], ref.canonical_keys, index)
    elif call.sub == "facets":
        got = [(_doc_key(f["tag"], index), tuple(f["generators_on"])) for f in doc["facets"]]
        require(doc["facet_count"] == len(got) and got == ref.facet_keys,
                "facets: tags or generator sets differ")
        require([(index[d["vertex"]], d["face_dimension"])
                 for d in doc["non_facet_coordinates"]] == ref.non_facet_coordinates(),
                "facets: non-facet coordinate faces differ")
    elif call.sub == "member":
        require(doc["is_member"] is call.expected, "member: wrong verdict")
        if not call.expected:
            _check_doc_constraint(ref, x, doc["violated"], index)
    elif call.sub == "decompose":
        require(doc["decomposable"] is call.expected, "decompose: wrong verdict")
        if call.expected:
            total = [0] * ref.n
            for pair, count in doc["decomposition"].items():
                u, w = pair.split(" ")
                require(type(count) is int and count > 0, f"bad multiplicity {count}")
                total[index[u]] += count
                total[index[w]] += count
            require(tuple(total) == tuple(x), "decompose: does not sum to the target")
        else:
            _check_doc_constraint(ref, x, doc["violated"], index)
    elif call.sub == "matching":
        if doc["has_perfect_matching"]:
            covered = sorted(index[v] for pair in doc["matching"] for v in pair)
            require(covered == list(range(ref.n)), "matching: not perfect")
            require(all(index[b] in ref.adj[index[a]] for a, b in doc["matching"]),
                    "matching: uses a non-edge")
        else:
            check_violator(ref, tuple(sorted(index[v] for v in doc["violator"])))
    elif call.sub == "validate":
        require(doc["validation"]["passed"], "validate: cross-validation failed")
    if call.oracle or call.sub == "validate":
        checks = doc["validation"]["checks"]
        require(doc["validation"]["passed"] and checks[0]["detail"]
                == f"{len(ref.facet_groups)} facets agree", "oracle report differs")
