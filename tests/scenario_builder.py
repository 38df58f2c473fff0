"""Scenarios built by hand for the tests."""

from laneassign import Scenario


def scenario_of(frames) -> Scenario:
    """The Scenario of `frames`, each a dict laid out like a scenario line
    (see `laneassign.harness`) but with `bounds` a BoundarySet.  Optional
    fields may be left out.  No value is checked, so a test can build what
    the parser rejects."""
    scenario = Scenario()
    for frame in frames:
        host = frame["host"]
        scenario.frame_of += [len(scenario.t)] * len(frame["objects"])
        scenario.frame_number.append(len(scenario.t))
        scenario.t.append(frame["t"])
        scenario.v.append(host["v"])
        scenario.yaw_rate.append(host["yaw_rate"])
        scenario.alpha.append(host.get("alpha", 0.0))
        scenario.var_v.append(host["var_v"])
        scenario.var_yaw.append(host["var_yaw"])
        scenario.bounds.append(frame.get("bounds"))
        for obj in frame["objects"]:
            scenario.id.append(obj["id"])
            scenario.x.append(obj["x"])
            scenario.y.append(obj["y"])
            scenario.var_x.append(obj["var_x"])
            scenario.var_y.append(obj["var_y"])
            scenario.v_lat.append(obj.get("v_lat"))
            scenario.gt.append(obj.get("gt"))
    return scenario
