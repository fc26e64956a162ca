"""The mutation sweep's bookkeeping (``tests/mutate.py``), checked without
running a mutant."""

import mutate


def test_every_equivalent_key_names_a_point_in_src():
    """Each EQUIVALENT key is a mutation point that the sweep finds in src/
    today, so an edit that retires a listed line fails here instead of
    leaving a dead entry. It parses the source only."""
    found = {point.key for path in sorted((mutate.ROOT / "src").rglob("*.py"))
             for point in mutate.points(path)}
    assert sorted(set(mutate.EQUIVALENT) - found) == []
