"""Regenerate the committed reference outputs under
``perfbench/references/``: one file per workload kind, covering every
input its pool holds, so that every seed's run is checked.

    PYTHONPATH=src python3 perfbench/make_references.py

Power references are recorded on the interpreted engine and checked
against the compiled engine before they are written: both engines are
held to one reference.  Run this only after a change that is meant to
alter simulated results, and say so in the change.
"""

import json
import os

from workloads import (REFERENCE_DIR, FuzzWorkload, MacromodelWorkload,
                       PowerWorkload)


def write(kind, data):
    path = os.path.join(REFERENCE_DIR, kind + ".json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s (%d entries)" % (os.path.relpath(path), len(data)))


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    # The workloads load the references they are about to replace; an
    # empty set stands in while they are written.
    for kind in ("power", "fuzz", "macromodel-fit"):
        with open(os.path.join(scratch, kind + ".json"), "w") as fh:
            fh.write("{}")
    power = PowerWorkload("power-interpreted", 1,
                          references=scratch).reference_data()
    compiled = PowerWorkload("power-compiled", 1,
                             references=scratch).reference_data()
    if compiled != power:
        raise SystemExit("compiled and interpreted engines disagree; "
                         "not writing references")
    write("power", power)
    write("fuzz", FuzzWorkload("fuzz", 1, references=scratch,
                               scratch=scratch).reference_data())
    write("macromodel-fit", MacromodelWorkload.reference_data())


if __name__ == "__main__":
    main()
