"""The README's library example runs as shown."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_as_shown():
    text = README.read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test)
    assert attempted == 6 and failed == 0
