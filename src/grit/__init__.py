"""Goal recognition for road vehicles with interpretable, verifiable trees.

Pipeline: describe the scene as a lane graph, preprocess recorded
trajectories into per-(goal, maneuver) training samples, fit small decision
trees whose nodes carry goal likelihoods, combine them with priors into a
Bayesian posterior over reachable goals, and formally check properties of
the resulting model, producing concrete counterexamples when they fail.

Import from the submodules (grit.scenario, grit.trajectory, grit.training,
grit.inference, grit.verification, ...); the package exports only its
version.
"""

__version__ = "0.1.0"
