"""The value classes, and the halfspaces the library builds on them.

The library builds its own halfspaces without the constructor checks,
as their normals are primitive and their senses fixed by construction,
so the checks run here instead: every halfspace a public function
returns must equal its rebuild through the checked constructors.  Every
public value and result class is built by one recipe, so one sample of
each, library-built where the library builds it, must pickle and
deep-copy to equal objects with equal hashes, stay frozen, have no
``__dict__`` and keep its repr; and each class that copies a caller's
list must keep none of it, and refuse ``None`` in a copied field whose
default is not ``None``.

The module needs neither pytest nor hypothesis, so it also runs as a
plain script on interpreters that lack them:

    PYTHONPATH=src python3 tests/test_value_objects.py
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

from edgecone import (ComponentTag, ConeRepresentation, CoordinateTag, EdgeDecomposition,
                      Facet, Hyperplane, IndependentSetTag, MatchingResult,
                      canonical_representation, cross_validate, facets,
                      full_representation, has_perfect_matching, independent_set_halfspace,
                      integer_decompose, membership)
from edgecone.oracle import Check, ValidationReport
from battery import (bipartite_battery, check_library_halfspaces, labelled_graph_failures,
                     path, standard_battery, star)

K13 = star(3)  # leaves 0,1,2 ; center 3
P2 = path(2)


def test_library_halfspaces_pass_the_constructor_checks():
    for g in standard_battery() + bipartite_battery():
        check_library_halfspaces(g, full_representation(g), facets(g))
    # every labelled graph on at most 6 vertices, in the pass shared
    # with two other exhaustive tests
    assert labelled_graph_failures()["constructor"] == []


def slotted_samples() -> dict:
    """One object of each value and result class, both outcomes of each
    result, with its repr as the classes without slots gave it."""
    h = independent_set_halfspace(K13, (0, 1))
    half = ("Halfspace(plane=Hyperplane(normal=(1, 1, 0, -1), "
            "tag=IndependentSetTag(vertices=(0, 1))), sense='<=0')")
    report = cross_validate(P2)
    return {
        CoordinateTag(3): "CoordinateTag(vertex=3)",
        IndependentSetTag((0, 1)): "IndependentSetTag(vertices=(0, 1))",
        ComponentTag(0): "ComponentTag(component=0)",
        h.plane: ("Hyperplane(normal=(1, 1, 0, -1), "
                  "tag=IndependentSetTag(vertices=(0, 1)))"),
        h: ("Halfspace(plane=Hyperplane(normal=(1, 1, 0, -1), "
            "tag=IndependentSetTag(vertices=(0, 1))), sense='<=0')"),
        facets(K13)[0]: ("Facet(halfspace=Halfspace(plane=Hyperplane("
                         "normal=(1, 0, 0, 0), tag=CoordinateTag(vertex=0)), "
                         "sense='>=0'), generators_on=(1, 2))"),
        canonical_representation(P2): (
            "ConeRepresentation(equations=(Hyperplane(normal=(1, -1), "
            "tag=ComponentTag(component=0)),), halfspaces=(Halfspace(plane=Hyperplane("
            "normal=(0, 1), tag=CoordinateTag(vertex=1)), sense='>=0'),), "
            "kind='canonical_bipartite')"),
        membership(K13, (1, 1, 1, 3)): "MembershipResult(is_member=True, violated=None)",
        membership(K13, (1, 1, 0, 1)): f"MembershipResult(is_member=False, violated={half})",
        integer_decompose(K13, (1, 1, 1, 3)).decomposition: (
            "EdgeDecomposition(multiplicities=((0, 1), (1, 1), (2, 1)))"),
        integer_decompose(K13, (1, 1, 1, 3)): (
            "DecompositionResult(decomposition=EdgeDecomposition("
            "multiplicities=((0, 1), (1, 1), (2, 1))), violated=None)"),
        integer_decompose(K13, (1, 1, 1, 1)): (
            f"DecompositionResult(decomposition=None, violated={half})"),
        has_perfect_matching(P2): (
            "MatchingResult(has_matching=True, matching=(0,), violator=None)"),
        has_perfect_matching(K13): (
            "MatchingResult(has_matching=False, matching=None, violator=(0, 1))"),
        report.checks[0]: "Check(name='facets', passed=True, detail='0 facets agree')",
        report: ("ValidationReport(checks=(Check(name='facets', passed=True, "
                 "detail='0 facets agree'), Check(name='membership', passed=True, "
                 "detail='52 points agree'), Check(name='dimension', passed=True, "
                 "detail='vertex count minus bipartite components = 1, rank = 1')))"),
    }


def test_slotted_classes_keep_their_repr():
    for obj, text in slotted_samples().items():
        assert repr(obj) == text
        assert not hasattr(obj, "__dict__"), type(obj)


def test_slotted_classes_pickle_and_copy_to_equal_objects():
    for obj in slotted_samples():
        copies = [pickle.loads(pickle.dumps(obj, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(obj), copy.deepcopy(obj)]
        for other in copies:
            assert type(other) is type(obj)
            assert other == obj and hash(other) == hash(obj)
            assert repr(other) == repr(obj)


def refused(change, errors) -> bool:
    try:
        change()
    except errors:
        return True
    return False


def test_slotted_classes_stay_frozen():
    for obj in slotted_samples():
        for name in obj.__dataclass_fields__:
            assert refused(lambda: setattr(obj, name, None), FrozenInstanceError)
            assert refused(lambda: delattr(obj, name), FrozenInstanceError)
        # a name that is no field is refused the same way
        assert refused(lambda: setattr(obj, "extra", None), FrozenInstanceError)
        assert refused(lambda: delattr(obj, "extra"), FrozenInstanceError)


def test_hyperplane_keeps_no_caller_list():
    normal = [1, 0]
    plane = Hyperplane(normal)
    normal[0] = 2
    assert plane.normal == (1, 0) and hash(plane) == hash(Hyperplane((1, 0)))


def test_independent_set_tag_keeps_no_caller_list():
    members = [0, 2]
    tag = IndependentSetTag(members)
    members.append(3)
    assert tag.vertices == (0, 2) and hash(tag) == hash(IndependentSetTag((0, 2)))


def test_facet_keeps_no_caller_list():
    h = independent_set_halfspace(K13, (0, 1))
    on = [0, 1]
    facet = Facet(h, on)
    on.append(2)
    assert facet.generators_on == (0, 1) and hash(facet) == hash(Facet(h, (0, 1)))


def test_cone_representation_keeps_no_caller_list():
    plane = Hyperplane((1, -1))
    equations, halfspaces = [], []
    rep = ConeRepresentation(equations, halfspaces, "full")
    equations.append(plane)
    halfspaces.append(independent_set_halfspace(K13, (0,)))
    assert rep.equations == () and rep.halfspaces == ()
    assert hash(rep) == hash(ConeRepresentation((), (), "full"))


def test_matching_result_keeps_no_caller_list():
    matching, violator = [0], [1, 2]
    found, short = MatchingResult(True, matching), MatchingResult(False, violator=violator)
    matching.append(1)
    violator.append(3)
    assert found.matching == (0,) and short.violator == (1, 2)
    assert found.violator is None and short.matching is None
    assert hash(found) == hash(MatchingResult(True, (0,)))
    assert hash(short) == hash(MatchingResult(False, violator=(1, 2)))


def test_edge_decomposition_keeps_no_caller_list():
    pairs = [(0, 1)]
    decomposition = EdgeDecomposition(pairs)
    pairs.append((1, 2))
    assert decomposition.multiplicities == ((0, 1),)
    assert hash(decomposition) == hash(EdgeDecomposition(((0, 1),)))


def test_validation_report_keeps_no_caller_list():
    checks = [Check("facets", True, "1 facets agree")]
    report = ValidationReport(checks)
    checks.append(Check("membership", False, "mismatch"))
    assert report.passed and report.checks == (Check("facets", True, "1 facets agree"),)
    assert hash(report) == hash(ValidationReport((Check("facets", True, "1 facets agree"),)))


# every constructor whose copied field has no ``None`` default, with that
# field ``None``; one table, since the module runs without pytest
NONE_FIELDS = {
    "IndependentSetTag": lambda: IndependentSetTag(None),
    "ConeRepresentation": lambda: ConeRepresentation(None, None, "full"),
    "EdgeDecomposition": lambda: EdgeDecomposition(None),
    "Facet": lambda: Facet(independent_set_halfspace(K13, (0, 1)), None),
    "ValidationReport": lambda: ValidationReport(None),
}


def test_none_is_refused_where_the_default_is_not_none():
    for name, build in NONE_FIELDS.items():
        assert refused(build, TypeError), name
    # the two fields whose default is None keep it
    assert MatchingResult(True).violator is None
    assert MatchingResult(True).matching is None
    assert MatchingResult(False, violator=[1, 2]).matching is None


if __name__ == "__main__":
    import sys

    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print("passed", test.__name__)
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
