"""Time one fresh-process set-up: import dtc_sense, build an engine and state.

    python perfbench/setup_probe.py '<json point>' floquet|lindblad

Prints the seconds from before `import dtc_sense` until the workload's first
engine and initial state exist: FloquetEngine + initial_state_with_tangent,
or LindbladEngine + initial_mixed_state.
"""
import json
import sys
import time


def main(point: dict, engine: str) -> float:
    start = time.perf_counter()
    import dtc_sense as ds

    probe = ds.ProbeConfig(length=int(point["L"]),
                           epsilon=float(point["epsilon"]))
    field = ds.FieldConfig(h_a=float(point["h_a_per_Jz"]),
                           delta_f=float(point["delta_f"]),
                           eta=float(point["eta"]))
    init = ds.InitConfig(tilt=float(point["theta_rad"]))
    if engine == "floquet":
        ds.FloquetEngine(probe, field)
        ds.initial_state_with_tangent(probe, init)
    else:
        gamma = float(point["gamma_per_Jz"])
        ds.LindbladEngine(probe, field, gamma)
        ds.initial_mixed_state(probe, init, gamma)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(json.loads(sys.argv[1]), sys.argv[2])))
