"""The operators that the mutation audit, tests/mutants.py, flips."""

from mutants import mutants


def test_mutants_leave_the_operators_of_type_annotations_alone():
    # a | in an argument's, a return's or an assignment's annotation joins types: flipped,
    # it is caught at import, not by a test; only the | of the values is mutated
    source = b"def f(x: int | None) -> float | None:\n    return x | 1\n"
    assert list(mutants(source)) == [("2:14", "|", "&", source.replace(b"x | 1", b"x & 1"))]
    source = b"y: int | None = 2 | 1\n"
    assert list(mutants(source)) == [("1:19", "|", "&", b"y: int | None = 2 & 1\n")]
