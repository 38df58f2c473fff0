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


# A host driving straight with exact speed and yaw rate.
STRAIGHT_HOST = dict(v=20.0, yaw_rate=0.0, var_v=0.0, var_yaw=0.0)


def one_object(detections) -> Scenario:
    """The scenario of one object, "o", 40 m ahead of `STRAIGHT_HOST`, one
    frame per (t, y, var_y, v_lat); its path offset is N(y, var_y)."""
    return scenario_of(
        dict(t=t, host=STRAIGHT_HOST, objects=[
            dict(id="o", x=40.0, y=y, var_x=0.04, var_y=var_y, v_lat=v_lat)
        ])
        for t, y, var_y, v_lat in detections
    )
