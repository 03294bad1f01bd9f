# %% [markdown]
# # Anatomy of a recovery
#
# The recovery controller runs the learned policy while the state looks
# normal for the current time slice, and pauses to climb back toward the
# data when the decision value g falls under lambda times the commanded
# control norm.  Climbing uses no gradients: probe a random direction with a
# small step, flip it if g did not improve, then take the real recovery step.
# Both magnitudes are fractions of g / lambda, which is what makes the
# maneuver safe: even a worst-case move cannot burn more than g of margin.

# %%
import numpy as np

from dfrlab.controllers import PolicyConfig, SwitchConfig, fit_policy
from dfrlab.envs import builtin_env_spec
from dfrlab.harness import activation_traces, resample_trace, rollout
from dfrlab.kernel_ocsvm import KernelParams, OcsvmParams
from dfrlab.supervisor import generate_demos
from dfrlab.support import fit_time_varying

spec = builtin_env_spec("point_push")
demos = generate_demos(spec, 20, seed=5)
support = fit_time_varying(demos, OcsvmParams(nu=0.05, kernel=KernelParams(gamma=15.0)))
policy = fit_policy(demos, PolicyConfig(centers=200, bandwidth=0.15))
cfg = SwitchConfig(lam=0.05)

# %% [markdown]
# ## Finding an episode that needs rescuing
#
# With only 20 demonstrations the estimated support is tight, so some start
# states drift near its boundary under the cloned policy.

# %%
rec = None
for seed in range(60):
    cand = rollout(spec, "dfr", support, policy, seed=seed, cfg=cfg)
    if cand.recovery_iterations > 0 and cand.outcome == "completed":
        rec = cand
        break
print(f"seed {rec.seed}: {rec.outcome}, {len(rec.steps)} steps, "
      f"{rec.recovery_iterations} recovery iterations, g_min {rec.g_min:.4f}")

# %% [markdown]
# ## The step-by-step audit
#
# Every step stores the decision value at its start; steps that triggered
# recovery also store each iteration's g at the probe and after the
# recovery motion, and whether the probe direction was flipped.  An
# iteration starts from the step's g or from the previous iteration's
# g_after, so that value is not stored again.

# %%
for s in rec.steps:
    if not s.recovery:
        continue
    print(f"step t={s.t}, g at step start {s.g:.4f}")
    g = s.g
    for k, ev in enumerate(s.recovery):
        arrow = "flip" if ev.flipped else "keep"
        print(f"   iter {k}: g {g:.4f} (threshold {ev.threshold:.4f}) "
              f"-> probe {ev.g_probe:.4f} ({arrow}) -> after step {ev.g_after:.4f}")
        g = ev.g_after
    tail = s.applied[-1].tag
    print(f"   exit: last applied control tagged '{tail}'")

# %% [markdown]
# ## The normalized view
#
# Dividing each iteration's starting g by the exit threshold
# lambda * ||u_hat||, which each iteration records, maps every activation
# onto [0, 1]: it starts below 1 and hands control back at 1.  The record
# alone is enough.  Resampling onto a common axis is what the ascent
# experiment averages.

# %%
traces = activation_traces(rec)
for i, tr in enumerate(traces):
    resampled = resample_trace(tr, 11)
    bar = " ".join(f"{v:.2f}" for v in resampled)
    print(f"activation {i} ({len(tr)} values): {bar}")

# %% [markdown]
# ## The safety ledger
#
# g_min collects every decision value the episode ever saw: the start gate,
# each step start, and all probe/recovery evaluations.  A certified run
# (lambda_mode="certified", lambda = L_t * K per slice) keeps this number
# nonnegative by construction; with a manual lambda it is a report.

# %%
print(f"g_min over the whole episode: {rec.g_min:.4f}")
