"""Malformed configs that every command rejects with exit 1 and one error
line, and the builders they start from.  ``tests/test_cli.py`` runs them
and ``tools/parity.py`` compares both trees' replies to them; this module
imports nothing, so either can load it on its own."""


def reach_config():
    return {"mode": "reach", "initial_weights": [0.6, 0.4],
            "target_weights": [0.5, 0.5],
            "coefficients": [[[1.0, 0.0], [0.0, 1.0]],
                             [[0.0, 1.0], [1.0, 0.0]]]}


def solve_config(**budget):
    return {"mode": "solve", "p_s": 0.0,
            "target": [[0.25, [0.1, 0.05]], [[0.1, -0.05], 0.75]],
            "budget": budget}


def sweep_config(**extra):
    return dict({"mode": "sweep", "p_s": 0.0,
                 "axes": [{"name": "p_p", "start": 0.0, "stop": 1.0,
                           "count": 3}],
                 "fixed": {"theta": 0.5, "alpha": 0.2}}, **extra)


# name -> config doc
CASES = {
    "reach_tol_list": dict(reach_config(), tol=[1]),
    "reach_tol_negative": dict(reach_config(), tol=-1),
    "reach_tol_zero": dict(reach_config(), tol=0),
    "reach_tol_infinity": dict(reach_config(), tol=float("inf")),
    "reach_weights_strings": dict(reach_config(),
                                  initial_weights=["a", "b"]),
    "reach_one_target_weight": dict(reach_config(), target_weights=[1.0]),
    "reach_three_target_weights": dict(reach_config(),
                                       target_weights=[0.5, 0.25, 0.25]),
    "solve_tol_string": solve_config(tol="abc"),
    "solve_tol_zero": solve_config(tol=0),
    "solve_tol_negative": solve_config(tol=-1e-8),
    "sweep_beta_string": sweep_config(beta="x"),
    "sweep_p_p_axis_0_3": sweep_config(
        axes=[{"name": "p_p", "start": 0, "stop": 3, "count": 4}]),
    "thermal_p_p_1_5": {"mode": "thermal", "temperature": 1, "p_p": 1.5},
    "thermal_p_p_0": {"mode": "thermal", "temperature": 1, "p_p": 0.0},
}
