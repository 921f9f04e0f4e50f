"""The README's library snippet runs, and its printed values match its comments."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs_and_prints_what_it_claims():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    claims = [line.split("#", 1)[1].strip() for line in block.splitlines()
              if line.startswith("print(")]
    assert len(printed) == len(claims)
    # a comment "0.0235757..." claims the printed value to its last digit
    numeric = [(got, claim[:-3]) for got, claim in zip(printed, claims)
               if re.fullmatch(r"[0-9]+\.[0-9]+\.\.\.", claim)]
    assert numeric
    for got, rounded in numeric:
        decimals = len(rounded.split(".")[1])
        assert abs(float(got) - float(rounded)) <= 0.5 * 10.0**-decimals, (got, rounded)
