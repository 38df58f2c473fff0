"""The batched pipeline against a plain-math reference and a per-object loop.

`run_pipeline` and `sweep_parameters` filter a whole scenario at once, with
the grid values of a sweep as a batch axis.  Two references check them.

The plain-math reference computes every value from the paper's equations
with `math` alone: the arc offset and its first-order variance, Phi through
`math.erfc`, the clamped tridiagonal predict and the Bayes update, the
scalar Kalman step and the median gate.  It calls neither the engine nor
the array kernels that the per-object functions share with it, so it checks
the formulas themselves.  It declines a scenario that leaves the domain it
covers.

The per-object loop is the one the engine replaces: the `Scenario` contract
of all frames (frame times and ids) in the parser's words, then per object
`ObjectMeasurement`'s check, `transform_to_path`, then
`build_transition_matrix`, `predict`, `update` and `lane_occupancy`, or
`kf_init`, `kf_predict`, `kf_update` and `discretize_posterior`, then
`assign`.  It is the reference for errors, and for values where the
reference declines.

Tolerances are fixed in advance: posteriors within 1e-12, identical
assignments and ROC rates, and identical errors (type and message, frame
context included).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scenario_builder import one_object, scenario_of

from laneassign import (
    DEFAULT_BOUNDS,
    EPSILON_MAX,
    STRAIGHT_YAW_THRESHOLD,
    BoundarySet,
    GaussianScalar,
    InputDomainError,
    InputVector,
    ObjectMeasurement,
    PathPosterior,
    PipelineConfig,
    ProcessNoise,
    RunResult,
    Scenario,
    SingularityError,
    SynthSpec,
    TransitionParams,
    assign,
    build_suite,
    build_transition_matrix,
    compute_roc,
    discretize_posterior,
    generate_synthetic,
    kf_init,
    kf_predict,
    kf_update,
    lane_occupancy,
    run_pipeline,
    sweep_parameters,
    transform_to_path,
)
from laneassign._engine import ABSENCE_TIMEOUT, filter_batch, flatten
from laneassign.discrete_filter import predict, update
from laneassign.harness import EPSILON_GRID, SIGMA_NU_GRID, SWEEP_CONFIG

POSTERIOR_TOL = 1e-12


def objects_by_frame(scenario):
    """The object-frames of each frame of a scenario, in order."""
    objects = [[] for _ in scenario.t]
    for k, frame_index in enumerate(scenario.frame_of):
        objects[frame_index].append(k)
    return objects


def parameter_of(method):
    return "epsilon" if method == "discrete" else "sigma_nu"


def with_value(config, method, value):
    """`config` with `value` for the method's parameter."""
    return dataclasses.replace(config, **{parameter_of(method): value})


# ---------------------------------------------------------------------------
# the plain-math reference
# ---------------------------------------------------------------------------


class Declined(Exception):
    """A value lies outside the domain the reference covers."""


def finite(*values):
    return all(math.isfinite(value) for value in values)


def reference_offset(v, yaw_rate, x, y, alpha, variances):
    """Mean and standard deviation of the signed lateral offset of (x, y)
    from the host's path, to first order in the inputs (v, yaw_rate, x, y)
    with the given variances.

    The path is the arc of radius r = v / yaw_rate, rotated by alpha, and
    the offset is r - sgn(r) d, with d the distance to the arc's center
    (-r sin alpha, r cos alpha).  It is evaluated as the quotient
    -(x^2 + y^2 + 2 r along) / (sgn(r) (d + |r|)), in which nothing cancels
    at large |r|.  Below STRAIGHT_YAW_THRESHOLD the path is the straight
    line, with offset y cos alpha - x sin alpha.
    """
    s, c = math.sin(alpha), math.cos(alpha)
    along = x * s - y * c
    across = x * c + y * s
    if abs(yaw_rate) < STRAIGHT_YAW_THRESHOLD:
        mean = -along
        # The yaw-rate component is the arc's limit, -across^2 / (2 v).
        d_yaw = 0.0 if v == 0.0 else -across * across / (2.0 * v)
        gradient = (0.0, d_yaw, -s, c)
    else:
        r = v / yaw_rate
        sgn = 1.0 if r >= 0.0 else -1.0
        cx, cy = x + s * r, y - c * r  # the object seen from the center
        d = math.hypot(cx, cy)
        mean = -(x * x + y * y + 2.0 * r * along) / (sgn * (d + abs(r)))
        # d(offset)/dr = (d - w) / d with w = sgn (r + along); where the two
        # nearly cancel, d^2 - w^2 = across^2 gives d - w = across^2 / (d + w).
        w = sgn * (r + along)
        d_r = (across * across / (d + w) if w > 0.0 else d - w) / d
        # dr/dv = 1 / yaw_rate and dr/dyaw_rate = -r / yaw_rate.
        gradient = (d_r / yaw_rate, -d_r * r / yaw_rate, -sgn * cx / d, -sgn * cy / d)
    # J V J^T for the diagonal V, in that order: J V can stay finite where J J overflows.
    variance = sum(g * var * g for g, var in zip(gradient, variances))
    return mean, math.sqrt(max(variance, 0.0))


def phi(z):
    """The standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def reference_occupancy(mean, std, bounds):
    """The probability of each of the five regions: Phi of each boundary,
    standardized by the combined deviation, differenced, clamped at 0 and
    renormalized."""
    cdf = [0.0]
    for boundary in bounds.boundaries:
        delta = boundary.mean - mean
        sigma = math.hypot(std, boundary.std)
        if sigma > 0.0:
            z = delta / sigma
        else:  # the limits: 0/0 -> 0, delta/0 -> signed infinity
            z = 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
        cdf.append(phi(z))
    cdf.append(1.0)
    raw = [max(high - low, 0.0) for low, high in zip(cdf, cdf[1:])]
    total = sum(raw)
    return [p / total for p in raw]


def reference_predict(prior, epsilon, eta):
    """Prediction with the tridiagonal, column-stochastic transition matrix.

    Each path leaks epsilon to each neighbor, and the drift eta moves mass
    toward higher indices: an interior column keeps 1 - 2 epsilon - |eta|
    and moves epsilon + |eta|/2 +- eta up and down; the end columns move
    epsilon + eta up (column 0) and epsilon - eta down (column 4).  First
    (epsilon, eta) are clamped to where every entry is a probability:
    0 <= epsilon <= EPSILON_MAX and |eta| <= min(epsilon, 1 - 3 epsilon).
    """
    epsilon = min(max(epsilon, 0.0), EPSILON_MAX)
    cap = min(epsilon, 1.0 - 3.0 * epsilon)
    eta = min(max(eta, -cap), cap)
    half = 0.5 * abs(eta)
    interior = (epsilon + half - eta, 1.0 - 2.0 * epsilon - abs(eta), epsilon + half + eta)
    columns = [  # (down, stay, up)
        (0.0, 1.0 - epsilon - eta, epsilon + eta),
        interior, interior, interior,
        (epsilon - eta, 1.0 - epsilon + eta, 0.0),
    ]
    predicted = [0.0] * 5
    for j, ((down, stay, up), mass) in enumerate(zip(columns, prior)):
        predicted[j] += stay * mass
        if j > 0:
            predicted[j - 1] += down * mass
        if j < 4:
            predicted[j + 1] += up * mass
    return predicted


def reference_update(predicted, measured):
    """Bayes' rule; with no overlap the posterior restarts from the
    measurement."""
    product = [p * m for p, m in zip(predicted, measured)]
    total = sum(product)
    if total <= 0.0:
        return [m / sum(measured) for m in measured]
    return [p / total for p in product]


def reference_kalman(state, z, r, t, u, sigma_nu):
    """One step of the scalar Kalman filter on the offset, a random walk
    driven by the offset rate u with white noise sigma_nu: the (mean,
    variance, time) after predicting from the state's frame time to the
    frame time t and fusing the measurement (z, r)."""
    mean, var, before = state
    dt = t - before
    if not (dt > 0.0 and finite(dt)):
        raise Declined("timestamps must strictly increase")
    noise = dt * sigma_nu
    mean, var = mean + dt * u, var + noise * noise
    if var == 0.0 and r == 0.0:  # both certain
        if z != mean:
            raise Declined("a certain state contradicts a certain measurement")
        gain = 0.0
    else:
        gain = var / (var + r)
    return mean + gain * (z - mean), (1.0 - gain) * var, t


def reference_assign(posterior, p_min):
    """The median index, the first l with P(X <= l) >= 1/2 and
    P(X >= l) >= 1/2, its probability, and whether that reaches p_min."""
    below = 0.0
    for index, p in enumerate(posterior):
        if below + p >= 0.5 and 1.0 - below >= 0.5:
            return index, p, p >= p_min
        below += p
    raise Declined("no median index")


def reference_measurement(scenario, f, k):
    """The offset (mean, std) of object-frame k in frame f, and its
    occupancy."""
    s = scenario
    inputs = (s.v[f], s.yaw_rate[f], s.x[k], s.y[k])
    variances = (s.var_v[f], s.var_yaw[f], s.var_x[k], s.var_y[k])
    v_lat = 0.0 if s.v_lat[k] is None else s.v_lat[k]
    if not (
        finite(*inputs, *variances, s.alpha[f], v_lat)
        and s.x[k] > 0.0
        and s.v[f] >= 0.0
        and min(variances) >= 0.0
        and abs(s.alpha[f]) < math.pi / 2
    ):
        raise Declined("an input lies outside its domain")
    mean, std = reference_offset(*inputs, s.alpha[f], variances)
    if not finite(mean, std):
        raise Declined("the offset is not finite")
    bounds = s.bounds[f] if s.bounds[f] is not None else DEFAULT_BOUNDS
    return mean, std, reference_occupancy(mean, std, bounds)


def check_posterior(posterior):
    if not (finite(*posterior) and min(posterior) >= 0.0 and abs(sum(posterior) - 1.0) <= 1e-9):
        raise Declined("not a probability vector")


def reference_run(scenario, method, config, measurements=None):
    """The RunResult of `method` over a scenario, in plain math.  Raises
    Declined where a value leaves the reference's domain; `measurements`
    caches `reference_measurement` by object-frame across calls."""
    measurements = {} if measurements is None else measurements
    s = scenario
    states, last_seen, rows = {}, {}, []
    for f, objects in enumerate(objects_by_frame(s)):
        t = s.t[f]
        for oid in [oid for oid, seen in last_seen.items() if t - seen > ABSENCE_TIMEOUT]:
            del states[oid]
            del last_seen[oid]
        bounds = s.bounds[f] if s.bounds[f] is not None else DEFAULT_BOUNDS
        for k in objects:
            if k not in measurements:
                measurements[k] = reference_measurement(s, f, k)
            z, std, occupancy = measurements[k]
            u = s.v_lat[k] or 0.0
            state = states.get(s.id[k])
            if method == "discrete":
                eta = config.eta_gain * u
                if not finite(eta):
                    raise Declined("the drift is not finite")
                prior = state or [0.2] * 5
                state = posterior = reference_update(
                    reference_predict(prior, config.epsilon, eta), occupancy
                )
            else:
                if state is None:
                    state = (z, std * std, t)
                else:
                    state = reference_kalman(state, z, std * std, t, u, config.sigma_nu)
                if not finite(*state):
                    raise Declined("the Kalman state is not finite")
                posterior = reference_occupancy(state[0], math.sqrt(state[1]), bounds)
            check_posterior(posterior)
            states[s.id[k]] = state
            last_seen[s.id[k]] = t
            rows.append(
                (t, s.id[k], s.gt[k], *reference_assign(posterior, config.p_min), posterior)
            )
    return result_of(method, rows)


def reference_runs(scenario, method, configs):
    """The reference's RunResult for each config, or None where it declines
    the scenario."""
    measurements = {}
    try:
        return [reference_run(scenario, method, c, measurements) for c in configs]
    except (Declined, ArithmeticError):
        return None


# ---------------------------------------------------------------------------
# the per-object loop
# ---------------------------------------------------------------------------


def loop_step(method, config, state, z, bounds, dt, u):
    """One step of a track through the per-object functions, from its state
    (None on a new track) over the dt seconds since its previous detection:
    the new state and the posterior."""
    if method == "discrete":
        if not math.isfinite(config.eta_gain):
            raise InputDomainError(f"eta_gain must be finite, got {config.eta_gain}")
        params = TransitionParams(config.epsilon, config.eta_gain * u)
        prior = state if state is not None else PathPosterior.uniform()
        state = update(
            predict(prior, build_transition_matrix(params)), lane_occupancy(z, bounds)
        )
        return state, state
    noise = ProcessNoise(config.sigma_nu)
    if state is None:
        state = kf_init(z)
    else:
        state = kf_update(kf_predict(state, u, dt, noise), z)
    return state, discretize_posterior(state, bounds)


def check_contract(scenario):
    """The `Scenario` contract, frame by frame in the parser's order and
    words: timestamps strictly increase and are finite, and no id repeats
    within a frame."""
    before = None
    for f, objects in enumerate(objects_by_frame(scenario)):
        t = scenario.t[f]
        try:
            if before is not None and t <= before:
                raise InputDomainError(f"timestamps must strictly increase ({t} after {before})")
            if not math.isfinite(t):
                raise InputDomainError(f"timestamp must be finite, got {t}")
            ids = set()
            for object_id in (scenario.id[k] for k in objects):
                if object_id in ids:
                    raise InputDomainError(f"duplicate object id {object_id!r}")
                ids.add(object_id)
        except ValueError as exc:
            raise type(exc)(f"frame {f} (t={t}): {exc}") from exc
        before = t


def loop_run(scenario, method, config, transforms=None):
    """The per-object loop: the contract of all frames, then check,
    transform, filter step and assign per object.

    `transforms` caches the offsets by object-frame so that a sweep
    transforms each object-frame once; errors carry the frame context.
    """
    check_contract(scenario)
    transforms = {} if transforms is None else transforms
    states, last_seen, rows = {}, {}, []
    s = scenario
    for f, objects in enumerate(objects_by_frame(s)):
        t = s.t[f]
        try:
            for oid in [oid for oid, seen in last_seen.items() if t - seen > ABSENCE_TIMEOUT]:
                del states[oid]
                del last_seen[oid]
            bounds = s.bounds[f] if s.bounds[f] is not None else DEFAULT_BOUNDS
            for k in objects:
                if k not in transforms:
                    ObjectMeasurement(s.x[k], s.y[k], s.v_lat[k])
                    inputs = InputVector(
                        np.array([s.v[f], s.yaw_rate[f], s.x[k], s.y[k]]),
                        np.diag([s.var_v[f], s.var_yaw[f], s.var_x[k], s.var_y[k]]),
                    )
                    transforms[k] = transform_to_path(inputs, s.alpha[f])
                states[s.id[k]], posterior = loop_step(
                    method, config, states.get(s.id[k]), transforms[k], bounds,
                    t - last_seen.get(s.id[k], t), s.v_lat[k] or 0.0,
                )
                last_seen[s.id[k]] = t
                assignment = assign(posterior, config.p_min)
                rows.append(
                    (t, s.id[k], s.gt[k], assignment.index,
                     assignment.probability, assignment.accepted, posterior.probs)
                )
        except ValueError as exc:
            raise type(exc)(f"frame {f} (t={t}): {exc}") from exc
    return result_of(method, rows)


def result_of(method, rows):
    """The RunResult of (t, object_id, ground_truth, index, probability,
    accepted, posterior) rows."""
    t, object_id, ground_truth, index, probability, accepted, posteriors = [
        list(column) for column in zip(*rows)
    ] or [[]] * 7
    return RunResult(
        method, t, object_id, ground_truth,
        np.array(index, dtype=int), np.array(probability, dtype=float),
        np.array(accepted, dtype=bool), np.array(posteriors, dtype=float).reshape(-1, 5),
    )


def concatenated(results):
    """One RunResult of several, in order."""
    return result_of(
        results[0].method,
        [
            row
            for result in results
            for row in zip(
                result.t, result.object_id, result.ground_truth, result.index,
                result.probability, result.accepted, result.posteriors,
            )
        ],
    )


def outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def frame_named(error):
    return int(re.match(r"frame (\d+) ", error[1]).group(1))


def assert_results_equal(got, expected):
    """The posteriors, indices and gates of one result against another."""
    np.testing.assert_allclose(got.posteriors, expected.posteriors, rtol=0, atol=POSTERIOR_TOL)
    assert got.index.tolist() == expected.index.tolist()
    assert got.accepted.tolist() == expected.accepted.tolist()


def assert_batch_matches(scenario, method, config, values):
    """Every value of one batch against the plain-math reference; returns
    the expected results per value.  Where the batch fails or the reference
    declines, each value's loop run is the reference instead; when loop runs
    fail, the batch must raise the error of the earliest failing frame over
    all values."""
    results, error = outcome(lambda: filter_batch([scenario], method, config, values))
    configs = [with_value(config, method, value) for value in values]
    expected = None if error else reference_runs(scenario, method, configs)
    if expected is None:
        transforms = {}
        runs = [outcome(lambda: loop_run(scenario, method, c, transforms)) for c in configs]
        loop_errors = [e for _, e in runs if e is not None]
        if loop_errors or error:
            assert error in loop_errors
            assert frame_named(error) == min(frame_named(e) for e in loop_errors)
            return None
        expected = [result for result, _ in runs]
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert_results_equal(got, want)
    return expected


def assert_run_equal(got, want):
    assert (got.method, got.t, got.object_id, got.ground_truth) == (
        want.method, want.t, want.object_id, want.ground_truth
    )
    assert_results_equal(got, want)
    assert (np.abs(got.probability - want.probability) <= POSTERIOR_TOL).all()


def assert_run_matches_loop(scenario, method, config):
    got, got_error = outcome(lambda: run_pipeline(scenario, method, config))
    want, want_error = outcome(lambda: loop_run(scenario, method, config))
    assert got_error == want_error
    if want is not None:
        assert_run_equal(got, want)


def assert_run_matches(scenario, method, config):
    """`run_pipeline` against the plain-math reference, or against the loop
    where the run fails or the reference declines."""
    got, error = outcome(lambda: run_pipeline(scenario, method, config))
    expected = None if error else reference_runs(scenario, method, [config])
    if expected is None:
        assert_run_matches_loop(scenario, method, config)
    else:
        assert_run_equal(got, expected[0])


# ---------------------------------------------------------------------------
# bundled suite and drifting transition matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method, grid", [("discrete", EPSILON_GRID), ("continuous", SIGMA_NU_GRID)]
)
def test_suite_sweep_matches_loop(method, grid):
    scenarios = list(build_suite(seed=0).values())
    runs = [
        assert_batch_matches(scenario, method, SWEEP_CONFIG, grid)
        for scenario in scenarios
    ]
    parameter = parameter_of(method)
    assert sweep_parameters(scenarios, method, grid, SWEEP_CONFIG) == [
        compute_roc(concatenated(results), f"{parameter}={value:g}")
        for results, value in zip(zip(*runs), grid)
    ]


def test_discrete_sweep_with_lateral_velocity_drift_matches_loop():
    # eta = eta_gain * v_lat changes along the lane change, so the batch
    # builds one matrix per distinct (epsilon, eta) pair.
    scenario = generate_synthetic(SynthSpec(kind="target_lane_change", seed=4))
    assert len(set(scenario.v_lat)) > 1
    config = PipelineConfig(eta_gain=0.05)
    runs = assert_batch_matches(scenario, "discrete", config, EPSILON_GRID)
    assert sweep_parameters([scenario], "discrete", EPSILON_GRID, config) == [
        compute_roc(results, f"epsilon={value:g}")
        for results, value in zip(runs, EPSILON_GRID)
    ]


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_run_is_the_single_value_batch(method):
    scenario = generate_synthetic(SynthSpec(kind="noisy_yaw", duration=5.0, seed=2))
    assert_run_matches_loop(scenario, method, PipelineConfig())


@pytest.mark.parametrize(
    "method, values", [("discrete", (0.2, 1e-2, 1e-5)), ("continuous", (0.04, 0.1, 0.4))]
)
def test_multi_scenario_batch_keeps_tracks_per_scenario(method, values):
    # The scenarios share one depth schedule, and `lead` is an object of
    # three of them: each scenario must still start its tracks afresh.
    kinds = ("straight_follow", "host_curve", "target_lane_change", "straight_follow")
    scenarios = [
        generate_synthetic(SynthSpec(kind, duration=2.0, seed=seed))
        for seed, kind in enumerate(kinds)
    ]
    config = PipelineConfig(eta_gain=0.05)
    results = filter_batch(scenarios, method, config, values)
    assert len(results) == len(values)
    for got, value in zip(results, values):
        per_value = with_value(config, method, value)
        expected = concatenated([reference_run(s, method, per_value) for s in scenarios])
        assert_results_equal(got, expected)


# ---------------------------------------------------------------------------
# generated scenarios
# ---------------------------------------------------------------------------

IDS = ("a", "b", "c", 1, "1")  # 1 and "1" are two objects


@st.composite
def scenarios(draw):
    """Scenarios that keep the `Scenario` contract, with id churn, int next
    to str ids, gaps longer than the absence timeout and of exactly it or
    the next timestamp above, frames with and without bounds, heading
    offsets and lateral velocities."""
    finite = dict(allow_nan=False, allow_infinity=False)
    n_frames = draw(st.integers(1, 12))
    steps = [0.02, 0.05, 0.1, 0.4, 1.5, "timeout"]
    frames, t, after_gap = [], 0.0, None
    for _ in range(n_frames):
        # Times are rounded to 9 decimals, except the one after a timeout
        # gap, which rounding would move onto the integer.
        exact = after_gap is not None
        if exact:
            t, after_gap = after_gap, None
        else:
            step = draw(st.sampled_from(steps))
            if step == "timeout":
                # An integer t, so that the next frame lies exactly
                # ABSENCE_TIMEOUT after it, or at the next float above that.
                t = float(math.ceil(t + 0.01))
                after_gap = t + ABSENCE_TIMEOUT
                if draw(st.booleans()):
                    after_gap = math.nextafter(after_gap, math.inf)
            else:
                t += step
        host = dict(
            v=draw(st.floats(0.0, 40.0, **finite)),
            yaw_rate=draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5, **finite))),
            alpha=draw(st.one_of(st.just(0.0), st.floats(-0.4, 0.4, **finite))),
        )
        ids = draw(st.lists(st.sampled_from(IDS), max_size=4, unique=True))
        objects = []
        for object_id in ids:
            v_lat = draw(st.one_of(st.none(), st.floats(-3.0, 3.0, **finite)))
            objects.append(dict(
                id=object_id,
                x=draw(st.floats(1.0, 100.0, **finite)),
                y=draw(st.floats(-12.0, 12.0, **finite)),
                v_lat=v_lat,
                var_x=draw(st.floats(1e-4, 1.0, **finite)),
                var_y=draw(st.floats(1e-4, 1.0, **finite)),
                gt=draw(st.integers(0, 4)),
            ))
        bounds = None
        if draw(st.booleans()):
            center = draw(st.floats(-2.0, 2.0, **finite))
            width = draw(st.floats(2.5, 4.5, **finite))
            stds = st.floats(0.05, 0.6, **finite)
            bounds = BoundarySet(
                tuple(
                    GaussianScalar(center + k * width, draw(stds))
                    for k in (-1.5, -0.5, 0.5, 1.5)
                )
            )
        host["var_v"] = draw(st.floats(1e-4, 1.0, **finite))
        host["var_yaw"] = draw(st.floats(1e-8, 1e-3, **finite))
        frames.append(dict(
            t=t if exact else round(t, 9),
            host=host,
            objects=objects,
            bounds=bounds,
        ))
    return scenario_of(frames)


GENERATED = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@GENERATED
@given(
    scenario=scenarios(),
    method=st.sampled_from(["discrete", "continuous"]),
    eta_gain=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_generated_run_matches_loop(scenario, method, eta_gain):
    assert_run_matches(scenario, method, PipelineConfig(eta_gain=eta_gain))


@GENERATED
@given(scenario=scenarios(), method=st.sampled_from(["discrete", "continuous"]))
def test_generated_batch_matches_loop(scenario, method):
    values = (0.2, 1e-2, 1e-5) if method == "discrete" else (0.04, 0.1, 0.4)
    assert_batch_matches(scenario, method, PipelineConfig(eta_gain=0.05), values)


def shuffled_and_renamed(scenario, rng):
    """`scenario` with the objects of each frame in a random order and each
    id renamed, and the object-frame of `scenario` that each of its
    object-frames comes from."""
    source = []
    for objects in objects_by_frame(scenario):
        rng.shuffle(objects)
        source += objects
    rename = {object_id: f"renamed {object_id!r}" for object_id in scenario.id}  # 1 and "1" stay two
    columns = {
        name: [getattr(scenario, name)[k] for k in source]
        for name in ("x", "y", "var_x", "var_y", "v_lat", "gt")
    }
    renamed = dataclasses.replace(
        scenario, id=[rename[scenario.id[k]] for k in source], **columns
    )
    return renamed, np.array(source, dtype=np.intp)


@GENERATED
@given(scenario=scenarios(), rng=st.randoms(use_true_random=False))
def test_object_order_and_ids_do_not_change_any_per_object_output(scenario, rng):
    renamed, source = shuffled_and_renamed(scenario, rng)
    config = PipelineConfig(eta_gain=0.05)
    for method, values in (("discrete", (0.2, 1e-2, 1e-5)), ("continuous", (0.04, 0.1, 0.4))):
        want, want_error = outcome(lambda: filter_batch([scenario], method, config, values))
        got, got_error = outcome(lambda: filter_batch([renamed], method, config, values))
        if want_error or got_error:
            # The same frame fails; which of its objects is named first may
            # depend on their order.
            assert got_error and want_error and got_error[0] is want_error[0]
            assert frame_named(got_error) == frame_named(want_error)
            continue
        for g, w in zip(got, want):
            assert g.t == [w.t[k] for k in source]
            assert g.ground_truth == [w.ground_truth[k] for k in source]
            for name in ("index", "probability", "accepted", "posteriors"):
                assert getattr(g, name).tobytes() == getattr(w, name)[source].tobytes(), name


# ---------------------------------------------------------------------------
# invariances on the bundled suite
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("index", "probability", "accepted", "posteriors")


def mirrored(scenario):
    """`scenario` reflected across the host's path: lateral positions, yaw
    rates, heading offsets and lateral velocities negated, every boundary
    set mirrored, and region i relabelled 4 - i."""
    def mirror(bounds):
        bounds = bounds or DEFAULT_BOUNDS
        return BoundarySet(
            tuple(GaussianScalar(-b.mean, b.std) for b in reversed(bounds.boundaries))
        )

    mirrors = {id(bounds): mirror(bounds) for bounds in scenario.bounds}
    return dataclasses.replace(
        scenario,
        yaw_rate=[-yaw_rate for yaw_rate in scenario.yaw_rate],
        alpha=[-alpha for alpha in scenario.alpha],
        bounds=[mirrors[id(bounds)] for bounds in scenario.bounds],
        y=[-y for y in scenario.y],
        v_lat=[None if u is None else -u for u in scenario.v_lat],
        gt=[None if gt is None else 4 - gt for gt in scenario.gt],
    )


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_mirroring_the_suite_mirrors_every_result(method):
    suite = list(build_suite(seed=0).values())
    (want,) = filter_batch(suite, method, PipelineConfig())
    (got,) = filter_batch([mirrored(scenario) for scenario in suite], method, PipelineConfig())
    assert np.abs(got.posteriors - want.posteriors[:, ::-1]).max() <= POSTERIOR_TOL
    assert (got.index == 4 - want.index).all()
    assert (got.accepted == want.accepted).all()


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_shifting_every_time_changes_no_result(method):
    # The Kalman step is a difference of frame times, which the shift
    # rounds; the discrete filter reads the times only through the timeout.
    suite = list(build_suite(seed=0).values())
    shifted = [dataclasses.replace(s, t=[t + 1000.0 for t in s.t]) for s in suite]
    (want,) = filter_batch(suite, method, PipelineConfig())
    (got,) = filter_batch(shifted, method, PipelineConfig())
    if method == "discrete":
        for name in RESULT_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    else:
        assert_results_equal(got, want)
        assert np.abs(got.probability - want.probability).max() <= POSTERIOR_TOL


@pytest.mark.parametrize(
    "method, values", [("discrete", (0.1, 1e-4)), ("continuous", (0.04, 0.4))]
)
def test_pooling_the_suite_changes_no_result(method, values):
    suite = list(build_suite(seed=0).values())
    pooled = filter_batch(suite, method, PipelineConfig(), values)
    separate = [filter_batch([scenario], method, PipelineConfig(), values) for scenario in suite]
    for g, got in enumerate(pooled):
        want = concatenated([results[g] for results in separate])
        assert (got.t, got.object_id, got.ground_truth) == (
            want.t, want.object_id, want.ground_truth
        )
        for name in RESULT_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def frames_of(scenario, keep):
    """`scenario` with only the frames `keep` marks, and their objects."""
    number = np.cumsum(keep) - 1
    objects = [k for k, f in enumerate(scenario.frame_of) if keep[f]]
    frame_columns = ("t", "v", "yaw_rate", "alpha", "var_v", "var_yaw", "bounds")
    object_columns = ("id", "x", "y", "var_x", "var_y", "v_lat", "gt")
    return dataclasses.replace(
        scenario,
        **{name: [v for v, k in zip(getattr(scenario, name), keep) if k] for name in frame_columns},
        **{name: [getattr(scenario, name)[k] for k in objects] for name in object_columns},
        frame_of=[int(number[scenario.frame_of[k]]) for k in objects],
    )


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_splitting_at_a_gap_changes_no_result(method):
    # A 1.5 s gap drops every track, so the frames after it start afresh
    # whether or not they share a scenario with the frames before.
    assert ABSENCE_TIMEOUT < 1.5
    for kind, scenario in build_suite(seed=0).items():
        t = np.array(scenario.t)
        whole = frames_of(scenario, ~((t > 9.0) & (t < 10.5)))
        parts = [frames_of(scenario, t <= 9.0), frames_of(scenario, t >= 10.5)]
        (got,) = filter_batch([whole], method, PipelineConfig())
        want = concatenated([filter_batch([part], method, PipelineConfig())[0] for part in parts])
        assert (got.t, got.object_id, got.ground_truth) == (
            want.t, want.object_id, want.ground_truth
        ), kind
        for name in RESULT_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (kind, name)


@pytest.mark.xfail(reason="ROADMAP item 3", strict=True)
@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_halving_the_frame_period_moves_no_posterior_far(method):
    # The same noise-free scene sampled every 25 and 50 ms; at the times
    # both share, the posteriors should agree whatever the frame period.
    for kind in ("target_lane_change", "noisy_yaw"):
        posteriors = []
        for step in (0.025, 0.05):
            scenario = generate_synthetic(SynthSpec(kind, step=step, noise_scale=0.0))
            (result,) = filter_batch([scenario], method, PipelineConfig())
            posteriors.append(dict(zip(zip(result.t, result.object_id), result.posteriors)))
        fine, coarse = posteriors
        assert coarse.keys() <= fine.keys(), kind
        assert max(np.abs(fine[key] - coarse[key]).max() for key in coarse) <= 0.02, kind


def reference_schedule(scenarios):
    """The track schedule as the engine's per-object dict loop built it
    before it worked on columns: the reference for `flatten`."""
    previous, depth, dt = [], [], []
    for scenario in scenarios:
        tracks = {}  # id -> (object-frame, frame time) of its last detection
        for t, objects in zip(scenario.t, objects_by_frame(scenario)):
            tracks = {
                oid: track for oid, track in tracks.items() if not t - track[1] > ABSENCE_TIMEOUT
            }
            for object_id in (scenario.id[k] for k in objects):
                track = tracks.get(object_id)
                if track is None:
                    previous.append(-1)
                    depth.append(0)
                    dt.append(math.nan)
                else:
                    previous.append(track[0])
                    depth.append(depth[track[0]] + 1)
                    dt.append(t - track[1])
                tracks[object_id] = (len(previous) - 1, t)
    previous = np.array(previous, dtype=np.intp)
    order = np.argsort(np.array(depth, dtype=np.intp), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return {
        "previous": previous,
        "dt": np.array(dt, dtype=float),
        "order": order,
        "source": np.where(previous < 0, -1, rank[previous])[order],
        "starts": np.concatenate([[0], np.cumsum(np.bincount(depth))]).astype(np.intp),
    }


def assert_schedule_matches(scenarios):
    flat = flatten(scenarios)
    for name, expected in reference_schedule(scenarios).items():
        got = getattr(flat, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name  # bit for bit, NaN included


@GENERATED
@given(scenario=scenarios())
def test_track_schedule_matches_the_dict_loop(scenario):
    # The scenario twice: the second run of an id must start a new track.
    assert_schedule_matches([scenario, scenario])


HOST = dict(v=20.0, yaw_rate=0.0, var_v=0.01, var_yaw=1e-6)


def lead(object_id="lead", x=30.0, y=0.0, var=0.04):
    """An object record, in host-lane truth."""
    return dict(id=object_id, x=x, y=y, var_x=var, var_y=var, gt=2)


def timeline(*entries):
    """A scenario of frames at the given times, each holding the given
    object ids."""
    return scenario_of(
        dict(t=t, host=HOST, objects=[lead(i) for i in ids]) for t, ids in entries
    )


@pytest.mark.parametrize(
    "frames",
    [
        # Dropped at a frame without the id, once the gap since the id's
        # last detection exceeds the timeout, though no gap between frames
        # does...
        timeline((0.0, "a"), (0.6, "b"), (1.2, "b"), (1.3, "a")),
        # ...and kept while that gap stays within it.
        timeline((0.0, "a"), (0.4, "b"), (0.8, "b"), (1.0, "a"), (1.9, "a")),
        # Integer times, as a library scenario may give them.
        timeline((0, "a"), (1, "a"), (3, ("a", "b")), (4, "b")),
        # Exactly the timeout keeps the track; the next float drops it.
        timeline((1.0, "a"), (2.0, "a"), (math.nextafter(3.0, 4.0), "a"), (3.5, ("a", "b"))),
        # The Kalman step is the difference of frame times (see below).
        timeline((0.03, "a"), (0.29, "a"), (0.34, "a")),
        # 1 and "1" are two tracks.
        timeline((0.0, (1, "1")), (0.05, ("1",)), (0.1, (1, "1"))),
    ],
)
def test_track_schedule_edge_cases(frames):
    assert_schedule_matches([frames, frames])


def test_a_scenario_has_no_column_that_splits_tracks():
    # Only the list of scenarios that the engine takes ends the tracks of
    # one scenario; a Scenario holds frame values and, per object-frame, the
    # index of its frame, and nothing that numbers frames within a run.
    assert [field.name for field in dataclasses.fields(Scenario)] == [
        "t", "v", "yaw_rate", "alpha", "var_v", "var_yaw", "bounds",
        "frame_of", "id", "x", "y", "var_x", "var_y", "v_lat", "gt",
    ]
    scenario = generate_synthetic(SynthSpec("target_lane_change", duration=2.0))
    with pytest.raises(TypeError):
        dataclasses.replace(scenario, frame_number=[0] * len(scenario))
    # One object in every frame, 50 ms apart: one track per scenario.
    n = len(scenario)
    assert flatten([scenario]).previous.tolist() == [-1, *range(n - 1)]
    assert flatten([scenario, scenario]).previous.tolist() == [
        -1, *range(n - 1), -1, *range(n, 2 * n - 1)
    ]


def test_kalman_step_is_the_difference_of_frame_times():
    # A filter that kept its own time would step from 0.03 + (0.29 - 0.03),
    # which is 0.29000000000000004.
    flat = flatten([timeline((0.03, "a"), (0.29, "a"), (0.34, "a"))])
    assert flat.dt[1:].tolist() == [0.29 - 0.03, 0.34 - 0.29]
    assert 0.34 - 0.29 != 0.34 - (0.03 + (0.29 - 0.03))


def test_frame_times_far_apart_start_a_new_track():
    # The gap overflows to inf, which exceeds the timeout without a warning.
    scenario = timeline((-1e308, "a"), (1e308, "a"))
    for method in ("discrete", "continuous"):
        result = run_pipeline(scenario, method)
        assert result.posteriors[1].tolist() == result.posteriors[0].tolist()
        assert_run_matches(scenario, method, PipelineConfig())


# ---------------------------------------------------------------------------
# errors: same type and message as the loop, naming the earliest frame
# ---------------------------------------------------------------------------


def straight(n):
    return generate_synthetic(SynthSpec(kind="straight_follow", duration=n * 0.05))


def frames_with(n, changed, host=None, objects=()):
    """`n` frames of one `lead`, 50 ms apart; the frames in `changed` have
    `host` in place of `HOST` and hold `objects` too."""
    return scenario_of(
        dict(t=0.05 * k, host=host or HOST, objects=[lead(), *objects])
        if k in changed else dict(t=0.05 * k, host=HOST, objects=[lead()])
        for k in range(n)
    )


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_singularity_names_the_earliest_failing_frame(method):
    # An object at the center of the turning host's path circle.
    turning = dict(HOST, v=10.0, yaw_rate=1.0, alpha=-0.5)
    r = 10.0 / 1.0
    center = lead("center", x=-(math.sin(-0.5) * r), y=math.cos(-0.5) * r)
    scenario = frames_with(6, (2, 4), turning, [center])
    with pytest.raises(SingularityError, match=rf"^frame 2 \(t={scenario.t[2]}\): "):
        run_pipeline(scenario, method)
    assert_run_matches_loop(scenario, method, PipelineConfig())


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize(
    "host, obj, message",
    [
        (None, dict(x=-5.0), "objects must be ahead of the host, got x=-5.0"),
        (None, dict(x=0.0), "objects must be ahead of the host, got x=0.0"),
        (None, dict(y=math.nan), "object position must be finite, got (30.0, nan)"),
        (None, dict(v_lat=math.inf), "lateral velocity input must be finite"),
        (dict(alpha=2.0), {}, "heading offset must lie in (-pi/2, pi/2), got 2.0"),
        (dict(alpha=-math.inf), {}, "heading offset must lie in (-pi/2, pi/2), got -inf"),
        (dict(v=-1.0), {}, "speed must be finite and >= 0, got -1.0"),
        # InputVector checks its mean and covariance before HostState sees them.
        (dict(yaw_rate=math.nan), {}, "mean and covariance must be finite"),
        (dict(yaw_rate=math.inf), {}, "mean and covariance must be finite"),
        (dict(v=math.inf), {}, "mean and covariance must be finite"),
        (dict(v=math.nan), {}, "mean and covariance must be finite"),
        (dict(var_v=math.inf), {}, "mean and covariance must be finite"),
        (None, dict(var_y=math.nan), "mean and covariance must be finite"),
        (dict(alpha=math.nan), {}, "heading offset must lie in (-pi/2, pi/2), got nan"),
        (dict(alpha=math.pi / 2), {},
         f"heading offset must lie in (-pi/2, pi/2), got {math.pi / 2}"),
        (dict(alpha=-math.pi / 2), {},
         f"heading offset must lie in (-pi/2, pi/2), got {-math.pi / 2}"),
        (None, dict(x=math.inf), "object position must be finite, got (inf, 0.0)"),
        (dict(var_yaw=-1e-300), {}, "covariance diagonal must be nonnegative"),
        (None, dict(var_x=-1e-300), "covariance diagonal must be nonnegative"),
    ],
)
def test_values_outside_the_domains_name_the_earliest_frame(method, host, obj, message):
    # A Scenario is not built through HostState and ObjectMeasurement, so a
    # run checks their domains.  The object that is out, or the one that
    # sees the host that is out, is new at frame 2 and seen again at 3.
    scenario = frames_with(
        4, (2, 3), host and dict(HOST, **host), [dict(lead("new"), **obj)]
    )
    error = (InputDomainError, f"frame 2 (t=0.1): {message}")
    assert outcome(lambda: run_pipeline(scenario, method))[1] == error
    assert outcome(lambda: sweep_parameters([scenario], method))[1] == error
    assert_run_matches_loop(scenario, method, PipelineConfig())


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize(
    "host, obj",
    [
        (dict(v=0.0), {}),
        (dict(alpha=math.nextafter(math.pi / 2, 0.0)), {}),
        (dict(alpha=-math.nextafter(math.pi / 2, 0.0)), {}),
        (None, dict(x=5e-324)),
        (dict(var_v=0.0, var_yaw=0.0), dict(var_x=0.0, var_y=0.0)),
        (dict(yaw_rate=1e-300), {}),
    ],
    ids=["standstill", "alpha below pi/2", "alpha above -pi/2", "least x",
         "zero variances", "least yaw rate"],
)
def test_values_just_inside_the_domains_run(method, host, obj):
    # The other side of each edge that the test above crosses.
    scenario = frames_with(
        4, (2, 3), host and dict(HOST, **host), [dict(lead("new"), **obj)]
    )
    assert outcome(lambda: run_pipeline(scenario, method))[1] is None
    assert_run_matches_loop(scenario, method, PipelineConfig())


def test_sweep_error_names_the_earliest_failing_frame():
    scenario = straight(5)
    scenario.var_v[3] = -1.0
    with pytest.raises(InputDomainError, match=r"^frame 3 \(t=0\.15\): covariance"):
        sweep_parameters([scenario], "discrete", EPSILON_GRID)


def test_sweep_error_names_the_first_failing_scenario():
    # The second scenario fails at frame 3 and the third already at frame
    # 1; scenarios are checked in order, so the second one's error wins.
    scenarios = [straight(5) for _ in range(3)]
    scenarios[1].var_v[3] = -1.0
    scenarios[2].var_v[1] = -1.0
    with pytest.raises(InputDomainError, match=r"^frame 3 \(t=0\.15\): covariance"):
        sweep_parameters(scenarios, "discrete", EPSILON_GRID)


def test_an_error_of_one_scenario_holds_its_index():
    # The CLI names the scenario's file by this index; a scenario without
    # frames still counts.
    failing = straight(5)
    failing.var_v[3] = -1.0
    unordered = straight(3)
    unordered.t[2] = unordered.t[1]
    misplaced = dataclasses.replace(straight(2), frame_of=[0, 1, 0, 1])
    for scenarios, index in (
        ([straight(3), failing], 1),
        ([Scenario(), straight(2), failing, failing], 2),
        ([straight(2), unordered], 1),
        ([straight(2), straight(3), misplaced], 2),
        ([Scenario(), dataclasses.replace(straight(2), gt=[])], 1),
    ):
        for method in ("discrete", "continuous"):
            with pytest.raises(ValueError) as got:
                sweep_parameters(scenarios, method)
            assert got.value.scenario == index
    with pytest.raises(InputDomainError) as got:
        sweep_parameters([failing], "discrete", [])
    assert not hasattr(got.value, "scenario")


PARAMETER_ERRORS = [
    ("discrete", PipelineConfig(epsilon=math.nan), "epsilon must be finite, got nan"),
    ("discrete", PipelineConfig(eta_gain=math.inf), "eta_gain must be finite, got inf"),
    ("continuous", PipelineConfig(sigma_nu=0.0), "sigma_nu must be finite and > 0, got 0.0"),
    ("continuous", PipelineConfig(sigma_nu=math.nan), "sigma_nu must be finite and > 0, got nan"),
    ("discrete", PipelineConfig(p_min=1.5), "p_min must lie in [0, 1], got 1.5"),
]


@pytest.mark.parametrize("method, config", [case[:2] for case in PARAMETER_ERRORS])
def test_parameter_errors_match_loop(method, config):
    # The settings are checked before any frame is filtered, so the error
    # names the setting and no frame, with or without object-frames; the
    # per-object loop fails on the same setting at its first step.
    message = next(m for _, c, m in PARAMETER_ERRORS if c is config)
    scenario = straight(3)
    no_objects = scenario_of([dict(t=0.0, host=HOST, objects=[])])
    for case in (scenario, Scenario(), no_objects):
        _, error = outcome(lambda: run_pipeline(case, method, config))
        assert error == (InputDomainError, message)
    _, loop_error = outcome(lambda: loop_run(scenario, method, config))
    assert loop_error[0] is InputDomainError
    assert loop_error[1].startswith("frame 0 (t=0.0): ")


@pytest.mark.parametrize("eta_gain", [math.inf, math.nan])
@pytest.mark.parametrize("kind", ["straight_follow", "target_lane_change"])
def test_non_finite_eta_gain_is_named(kind, eta_gain):
    # target_lane_change reports v_lat on every object, straight_follow none
    scenario = generate_synthetic(SynthSpec(kind=kind, duration=0.15))
    config = PipelineConfig(eta_gain=eta_gain)
    message = f"eta_gain must be finite, got {eta_gain}"
    for call in (
        lambda: run_pipeline(scenario, "discrete", config),
        lambda: sweep_parameters([scenario], "discrete", EPSILON_GRID, config),
    ):
        assert outcome(call)[1] == (InputDomainError, message)
    assert outcome(lambda: loop_run(scenario, "discrete", config))[1] == (
        InputDomainError, f"frame 0 (t=0.0): {message}"
    )


def test_an_overflowing_drift_names_the_frame():
    # eta_gain and v_lat are finite, but their product overflows: the one
    # discrete failure that the transform lets through.
    scenario = one_object([(0.0, 0.0, 0.04, 1e300), (0.05, 0.0, 0.04, 1e300)])
    config = PipelineConfig(eta_gain=1e10)
    error = (
        InputDomainError,
        "frame 0 (t=0.0): transition parameters must be finite, got epsilon=0.05, eta=inf",
    )
    assert outcome(lambda: run_pipeline(scenario, "discrete", config))[1] == error
    assert outcome(
        lambda: sweep_parameters([scenario], "discrete", [config.epsilon], config)
    )[1] == error
    assert_run_matches_loop(scenario, "discrete", config)


def test_the_method_is_checked_before_the_grid_and_the_settings():
    error = (
        InputDomainError,
        "unknown method 'bogus'; expected one of ('discrete', 'continuous')",
    )
    suite = list(build_suite().values())
    out_of_range = PipelineConfig(p_min=2.0)
    for grid in (None, []):
        assert outcome(lambda: sweep_parameters(suite, "bogus", grid))[1] == error
        assert outcome(lambda: sweep_parameters(suite, "bogus", grid, out_of_range))[1] == error
    assert outcome(lambda: run_pipeline(suite[0], "bogus"))[1] == error
    assert outcome(lambda: run_pipeline(suite[0], "bogus", out_of_range))[1] == error
    # Then the grid, then the settings.
    assert outcome(lambda: sweep_parameters(suite, "discrete", [], out_of_range))[1] == (
        InputDomainError, "parameter grid must be nonempty"
    )


def test_non_increasing_timestamps_fail_both_methods():
    scenario = straight(3)
    scenario.t[2] = scenario.t[1]
    message = r"^frame 2 \(t=0\.05\): timestamps must strictly increase \(0\.05 after 0\.05\)$"
    for method in ("discrete", "continuous"):
        with pytest.raises(InputDomainError, match=message):
            run_pipeline(scenario, method)
        assert_run_matches_loop(scenario, method, PipelineConfig())


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize(
    "scenario, message",
    [
        (timeline((0.0, "a"), (0.05, "a"), (math.nan, "a"), (0.15, "a")),
         "frame 2 (t=nan): timestamp must be finite, got nan"),
        (timeline((math.nan, "a"), (5.0, "b"), (9.0, "a")),
         "frame 0 (t=nan): timestamp must be finite, got nan"),
        (timeline((0.0, "a"), (math.inf, "a")), "frame 1 (t=inf): timestamp must be finite, got inf"),
        (timeline((0.0, "a"), (0.05, "a"), (0.05, "a")),
         "frame 2 (t=0.05): timestamps must strictly increase (0.05 after 0.05)"),
        (timeline((0.0, "a"), (1.5, "b"), (1.2, "b"), (0.3, "a")),
         "frame 2 (t=1.2): timestamps must strictly increase (1.2 after 1.5)"),
        (timeline((0.0, "a"), (0.05, ("a", "b")), (0.1, ("b", "a", "b", "a"))),
         "frame 2 (t=0.1): duplicate object id 'b'"),
        (timeline((0.0, (1, "1")), (0.05, (1, 1))), "frame 1 (t=0.05): duplicate object id 1"),
        # Of two faults in one frame, the time is named, as by the parser.
        (timeline((0.0, "a"), (0.0, ("a", "a"))),
         "frame 1 (t=0.0): timestamps must strictly increase (0.0 after 0.0)"),
    ],
)
def test_frames_that_break_the_contract_are_named(method, scenario, message):
    error = (InputDomainError, message)
    assert outcome(lambda: run_pipeline(scenario, method))[1] == error
    # After another scenario, whose frames the numbering does not count.
    assert outcome(lambda: sweep_parameters([straight(3), scenario], method))[1] == error
    assert outcome(lambda: loop_run(scenario, method, PipelineConfig()))[1] == error


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_the_contract_is_checked_before_the_domains(method):
    # Frame 1 holds an object behind the host; frame 3 repeats a time.
    scenario = frames_with(5, (1,), objects=[lead("behind", x=-5.0)])
    scenario.t[3] = scenario.t[2]
    message = "frame 3 (t=0.1): timestamps must strictly increase (0.1 after 0.1)"
    assert outcome(lambda: run_pipeline(scenario, method))[1] == (InputDomainError, message)
    assert_run_matches_loop(scenario, method, PipelineConfig())


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize(
    "frame_of, message",
    [
        ([1, 0], "frame_of must not decrease, got 0 after 1"),
        ([0], "frame_of must have one entry per id, got 1 for 2 ids"),
        ([0, 1, 1], "frame_of must have one entry per id, got 3 for 2 ids"),
        ([0, 2], "frame_of must lie in range(2), got 2"),
        ([-1, 0], "frame_of must lie in range(2), got -1"),
    ],
    ids=["decreasing", "short", "long", "past the last frame", "negative"],
)
def test_a_frame_of_out_of_frame_order_is_named(method, frame_of, message):
    # One object seen at t = 0.0 and 0.5.
    scenario = dataclasses.replace(timeline((0.0, "a"), (0.5, "a")), frame_of=frame_of)
    error = (InputDomainError, message)
    assert outcome(lambda: run_pipeline(scenario, method))[1] == error
    assert outcome(lambda: sweep_parameters([straight(3), scenario], method))[1] == error
    # The column is checked before the frame times.
    scenario.t[1] = 0.0
    assert outcome(lambda: run_pipeline(scenario, method))[1] == error


FRAME_COLUMNS = ("t", "v", "yaw_rate", "alpha", "var_v", "var_yaw", "bounds")
OBJECT_COLUMNS = ("frame_of", "id", "x", "y", "var_x", "var_y", "v_lat", "gt")


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize("name", FRAME_COLUMNS + OBJECT_COLUMNS)
def test_a_column_of_the_wrong_length_is_named(method, name):
    # Three frames of two objects.  A column is measured against `t` or
    # `id`; where one of those is off, the first other column is named.
    unit, count = ("frame", 3) if name in FRAME_COLUMNS else ("id", 6)
    for changed in (count - 1, count + 1):
        scenario = straight(3)
        setattr(scenario, name, (getattr(scenario, name) * 2)[:changed])
        if name in ("t", "id"):
            named, got, want = ("v" if unit == "frame" else "frame_of"), count, changed
        else:
            named, got, want = name, changed, count
        error = (
            InputDomainError,
            f"{named} must have one entry per {unit}, got {got} for {want} {unit}s",
        )
        assert outcome(lambda: run_pipeline(scenario, method))[1] == error
        assert outcome(lambda: sweep_parameters([straight(3), scenario], method))[1] == error


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_columns_are_checked_per_scenario(method):
    # The last detection's values moved from the first scenario to the front
    # of the second: the joined columns keep their total length, but each
    # scenario's are off by one.
    a = generate_synthetic(SynthSpec("straight_follow", duration=1.0))
    b = generate_synthetic(SynthSpec("host_curve", duration=1.0))
    for name in ("x", "y", "var_x", "var_y"):
        getattr(b, name).insert(0, getattr(a, name).pop())
    error = (InputDomainError, "x must have one entry per id, got 39 for 40 ids")
    assert outcome(lambda: filter_batch([a, b], method, PipelineConfig(), [0.01]))[1] == error
    assert outcome(lambda: sweep_parameters([a, b], method))[1] == error


def test_overflowing_process_noise_is_an_input_error():
    # (dt * sigma_nu)^2 overflows to an infinite state variance, which the
    # Kalman state rejects.
    scenario = straight(3)
    config = PipelineConfig(sigma_nu=1e200)
    with pytest.raises(InputDomainError, match=r"^frame 1 .*state variance must be finite"):
        run_pipeline(scenario, "continuous", config)
    assert_run_matches_loop(scenario, "continuous", config)


def test_certain_state_contradicting_certain_measurement():
    # Zero measurement noise and a process noise whose square underflows
    # leave both sides certain; a moved object then contradicts the state.
    scenario = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.15, noise_scale=0.0)
    )
    config = PipelineConfig(sigma_nu=1e-300)
    assert_run_matches_loop(scenario, "continuous", config)

    for k, frame_index in enumerate(scenario.frame_of):
        if frame_index == 2:
            scenario.y[k] += 0.5
    with pytest.raises(InputDomainError, match=r"^frame 2 .*contradicts certain"):
        run_pipeline(scenario, "continuous", config)
    assert_run_matches_loop(scenario, "continuous", config)

    # In a sweep the contradicting value fails first, wherever it lies in
    # the grid, and its message is the per-object one.
    message = "frame 2 (t=0.1): certain state 0.0 contradicts certain measurement 0.5"
    for grid in ([1e-300, 0.1], [0.1, 1e-300]):
        with pytest.raises(InputDomainError) as error:
            sweep_parameters([scenario], "continuous", grid)
        assert str(error.value) == message


SHARP = BoundarySet(tuple(GaussianScalar(mean, 0.0) for mean in (-5.0, -1.0, 1.0, 5.0)))
EXACT = dict(HOST, var_v=0.0, var_yaw=0.0)


def test_zero_overlap_resets_to_the_measurement(caplog):
    # Sharp bounds and exact measurements: the object jumps from region 0
    # to region 4 with epsilon = 0, so the prior has no mass where the
    # measurement has.
    scenario = scenario_of(
        dict(t=t, host=EXACT, objects=[dict(lead("o", y=y, var=0.0), gt=0)], bounds=SHARP)
        for t, y in ((0.0, -8.0), (0.05, 8.0))
    )
    config = PipelineConfig(epsilon=0.0, eta_gain=0.0)
    with caplog.at_level("WARNING"):
        results = run_pipeline(scenario, "discrete", config)
    assert results.posteriors[1].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert any("zero overlap" in record.message for record in caplog.records)
    assert_run_matches_loop(scenario, "discrete", config)


def test_zero_overlap_resets_some_values_of_one_depth(caplog):
    # Three objects in one depth: "jump" moves from region 0 to region 1,
    # which resets at epsilon = 0 only; "flip" moves from region 4 to
    # region 0, out of reach of one predict, and resets at every epsilon;
    # "stay" never resets.
    scenario = scenario_of(
        dict(t=t, host=EXACT, bounds=SHARP, objects=[
            dict(lead(oid, y=y, var=0.0), gt=0)
            for oid, y in zip(("jump", "flip", "stay"), offsets)
        ])
        for t, offsets in ((0.0, (-8.0, 8.0, 0.0)), (0.05, (-3.0, -8.0, 0.0)))
    )
    config = PipelineConfig(eta_gain=0.0)
    values = (0.0, 0.1)

    def resets():
        return sum("zero overlap" in record.message for record in caplog.records)

    with caplog.at_level("WARNING"):
        filter_batch([scenario], "discrete", config, values)
        assert resets() == 2  # one per object-frame with a reset at any value
        for value, expected in zip(values, (2, 1)):
            per_value = dataclasses.replace(config, epsilon=value)
            caplog.clear()
            results = run_pipeline(scenario, "discrete", per_value)
            assert resets() == expected
            caplog.clear()
            assert_run_matches_loop(scenario, "discrete", per_value)
            assert resets() == 2 * expected  # the run and the loop
    assert results.posteriors[4].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert_batch_matches(scenario, "discrete", config, values)
