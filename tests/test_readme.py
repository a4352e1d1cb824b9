"""The README's library example runs and prints what its comments say."""

from helpers import REPO


def library_example() -> str:
    """The fenced python block of the README's "Library" section."""
    section = (REPO / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_runs():
    names: dict = {}
    exec(compile(library_example(), "README.md", "exec"), names)
    # e^2, (3e)^2, e^3(3e), e(3e)^3 over the ground set (e, 3e)
    assert set(names["atoms"].vectors) == {(2, 0), (0, 2), (3, 1), (1, 3)}
    assert eval("min_delta(g8, pair)", names) == 2
    assert names["report"].delta_star == (1, 2, 3)
    assert names["same"] == names["report"]
