"""The two simulation backends side by side.

The kinematic backend teleports the robot along Euler-integrated velocity
commands and simply holds position when the target pose would collide. The
dynamic-lite backend is a cheap surrogate for a physics-stepped simulator:
commands are tracked through a first-order velocity lag over 240 substeps,
contacts can slide along walls, and deep penetrations count as falls.

Run with: python3 demos/02_backends_kinematic_vs_dynlite.py
"""

from kinnav import (PROFILES, Pose, VelocityCommand, dynamic_lite_step,
                    kinematic_step, load_world)
from kinnav.robots import SPOT

# A room with a wall slab at x in [5, 6].
rows = ["".join("#" if ix == 5 else "." for ix in range(12))] * 12
grid = load_world("cell_size 1\n" + "\n".join(rows) + "\n")

print("open-space step, both backends, cmd vx = 0.5 m/s:")
start = Pose(2.0, 6.0, 0.0)
cmd = VelocityCommand(0.5, 0.0, 0.0)
kin, blocked = kinematic_step(grid, start, cmd, SPOT)
print(f"  kinematic : x {start.x:.3f} -> {kin.x:.3f}  (teleport, blocked={blocked})")
vel = VelocityCommand(0.0, 0.0, 0.0)
dyn, vel, events = dynamic_lite_step(grid, start, vel, cmd, PROFILES["profile-A"], SPOT)
print(f"  dyn-lite A: x {start.x:.3f} -> {dyn.x:.3f}  "
      f"(velocity lag: actual vx {vel.vx:.3f} m/s after 1 s)")

print("\ndriving into the wall from 0.35 m away:")
near = Pose(5.0 - SPOT.footprint_radius - 0.35, 6.0, 0.0)
kin, blocked = kinematic_step(grid, near, cmd, SPOT)
print(f"  kinematic : blocked={blocked}, position held at x={kin.x:.3f}")
vel = VelocityCommand(0.0, 0.0, 0.0)
dyn, vel, events = dynamic_lite_step(grid, near, vel, cmd, PROFILES["profile-A"], SPOT)
contacts = sum(1 for e in events if e[0] == "contact")
print(f"  dyn-lite A: {contacts} contact substeps, settled at x={dyn.x:.3f} "
      f"(pressed against the wall)")

print("\nsliding: approach the wall at 45 degrees")
diag = VelocityCommand(0.35, 0.35, 0.0)
for name in ("profile-A", "profile-B"):
    vel = VelocityCommand(0.0, 0.0, 0.0)
    pose = near
    for _ in range(3):
        pose, vel, events = dynamic_lite_step(grid, pose, vel, diag,
                                              PROFILES[name], SPOT)
    slide = "slides along the wall" if PROFILES[name].slide_on_contact \
        else "sticks at the contact"
    print(f"  {name}: after 3 s at ({pose.x:.2f}, {pose.y:.2f}) -- {slide}")
