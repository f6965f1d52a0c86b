# O-space targets and peak extraction: a worked scene
#
# Two people facing each other across 1.4 m share an o-space centred
# between them; a third person looks away and stays unassigned.  We build
# the Gaussian target heatmap for that scene, print it as text, then run
# non-maximum suppression and greedy assignment to recover the group.

import numpy as np

from ospace.core import DEFAULT_SPEC, Person, Scene
from ospace.groundtruth import propose_centers, scene_target
from ospace.postprocess import AssignParams, assign_groups, nms

np.set_printoptions(precision=3, suppress=True)

a = Person(x=1.0, y=2.0, yaw_deg=0.0)     # facing +x
b = Person(x=2.4, y=2.0, yaw_deg=180.0)   # facing back at a
c = Person(x=4.5, y=4.0, yaw_deg=90.0)    # looking at the far wall
scene = Scene("demo", (a, b, c), ((0, 1), (2,)))

print("proposed o-space centers (0.7 m ahead of each person), one row each:")
print(propose_centers(scene.persons, 0.7))

heatmap = scene_target(scene)
print(f"\ntarget heatmap, {DEFAULT_SPEC.rows} rows x {DEFAULT_SPEC.cols} cols,"
      " top row = top of the room:")
for r in range(DEFAULT_SPEC.rows - 1, -1, -1):
    print("  " + " ".join(f"{heatmap.values[r, c]:.2f}"
                          for c in range(DEFAULT_SPEC.cols)))

params = AssignParams()
peaks = nms(heatmap, params)
print("\npeaks after non-maximum suppression:")
for d in peaks:
    print(f"  ({d.center.x:.2f}, {d.center.y:.2f})  score {d.score:.3f}")

groups = assign_groups(scene.persons, peaks, params)
print(f"\nrecovered groups: {groups}")
print(f"annotated groups: {scene.groups}")
assert groups == scene.groups
