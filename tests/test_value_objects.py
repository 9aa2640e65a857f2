"""The value classes, and the halfspaces the library builds on them.

The library builds its own halfspaces without the constructor checks,
as their normals are primitive and their senses fixed by construction,
so the checks run here instead: every halfspace a public function
returns must equal its rebuild through the checked constructors.  The
slotted value classes must pickle and deep-copy to equal objects with
equal hashes, stay frozen and keep their repr.

The module needs neither pytest nor hypothesis, so it also runs as a
plain script on interpreters that lack them:

    PYTHONPATH=src python3 tests/test_value_objects.py
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

from edgecone import (ComponentTag, CoordinateTag, Facet, Hyperplane, IndependentSetTag,
                      facets, full_representation, independent_set_halfspace)
from battery import (bipartite_battery, check_library_halfspaces, labelled_graph_failures,
                     standard_battery, star)

K13 = star(3)  # leaves 0,1,2 ; center 3


def test_library_halfspaces_pass_the_constructor_checks():
    for g in standard_battery() + bipartite_battery():
        check_library_halfspaces(g, full_representation(g), facets(g))
    # every labelled graph on at most 6 vertices, in the pass shared
    # with two other exhaustive tests
    assert labelled_graph_failures()["constructor"] == []


def slotted_samples() -> dict:
    """One object of each slotted class, the halfspaces library-built,
    with its repr as the classes without slots gave it."""
    h = independent_set_halfspace(K13, (0, 1))
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


if __name__ == "__main__":
    import sys

    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print("passed", test.__name__)
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
