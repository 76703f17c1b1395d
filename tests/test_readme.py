"""README's Library example runs as printed, and each value its comments
state is the value the line gives."""

import re
from pathlib import Path

import lietriple

README = Path(__file__).parent.parent / "README.md"


def library_example():
    """The lines of the first python block under README's Library heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def stated_value(comment):
    """The comment compiled as a Python expression, or None when it is prose."""
    try:
        return compile(comment, "README.md", "eval")
    except SyntaxError:
        return None


def test_readme_library_example_gives_the_values_its_comments_state():
    namespace = {}
    checked = []
    for line in library_example():
        code, _, comment = line.partition("  # ")
        expected = stated_value(comment.strip()) if comment else None
        if expected is None:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        # a stated value names the library's types as lietriple exports them
        want = eval(expected, vars(lietriple))
        assert got == want, line
        checked.append(line)
    assert len(checked) == 3, checked
