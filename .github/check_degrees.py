"""Check the cell degrees of one ``equidim run`` JSON document on stdin.

    equidim gen-ps 5 | equidim run - | python .github/check_degrees.py witness "ps(5)" 1:16 0:176

Asserts that the run used BACKEND and that the degrees of its cells,
summed per dimension, are exactly the DIM:DEGREE pairs given.
"""

import json
import sys

backend, label, *pairs = sys.argv[1:]
expected = {int(d): int(g) for d, g in (pair.split(":") for pair in pairs)}
doc = json.load(sys.stdin)
assert doc["backend"] == backend, doc["backend"]
degs = {}
for cell in doc["cells"]:
    degs[cell["dimension"]] = degs.get(cell["dimension"], 0) + cell["degree"]
assert degs == expected, degs
print(f"{label} degrees by dimension:", backend, degs)
