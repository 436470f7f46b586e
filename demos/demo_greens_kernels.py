"""Interaction kernels and the absorber argument.

Evaluates the massive kernel by oscillatory quadrature against its
far-field asymptotics, shows that only the time-symmetric kernel conserves
pairwise 4-momentum, and runs the closed-form absorber bookkeeping that
turns half-advanced/half-retarded emission into net retarded radiation.

Run:  python demos/demo_greens_kernels.py
"""

import numpy as np

from metronlab.greens import (
    DispersionParams,
    WorldLine,
    absorber_balance,
    damping_coefficient,
    greens_dispersive,
    greens_nondispersive,
    greens_stationary_phase,
    momentum_exchange,
    response_delta,
)

# --- kernel values -----------------------------------------------------------
params = DispersionParams(omega_hat=1.0, k_max=40.0)
print("massless kernel: light-cone support")
desc = greens_nondispersive(2.0, 2.0, "retarded")
print(f"  r=t=2: on_support={desc['branches'][0]['on_support']}, "
      f"weight={desc['branches'][0]['weight']:.6f}")

print("\nmassive kernel: quadrature vs far-field asymptotics")
v, t = np.array([0.5, 0.5, 0.3]), np.array([40.0, 80.0, 120.0])
quad = greens_dispersive(v * t, t, params, "retarded")  # one call per scan
asym = greens_stationary_phase(v * t, t, params, "retarded")
for vi, ti, q, a in zip(v, t, quad, asym):
    print(f"  v={vi}, t={ti:5.0f}: quadrature {q:+.4e}  asymptotic {a:+.4e}  "
          f"({abs(q - a) / abs(q):.2%} apart)")

# --- only the symmetric kernel conserves pairwise momentum -------------------
print("\npairwise momentum exchange along two sampled world lines")
li = WorldLine.static_point([0.0, 0.0, 0.0], (-6.0, 6.0), 101)
lj = WorldLine.from_velocity([4.0, 0.0, 0.0], [0.0, 0.3, 0.0], (-6.0, 6.0), 101)
for kind in ("symmetric", "retarded"):
    dp_i, dp_j = momentum_exchange(li, lj, 0.4, kind)
    viol = np.max(np.abs(dp_i + dp_j)) / np.max(np.abs(dp_i))
    print(f"  {kind:9s}: |dp_i + dp_j| / |dp_i| = {viol:.2e}")

# --- the absorber turns symmetric emission into retarded radiation -----------
print("\nabsorber bookkeeping for emitted amplitude A = 1")
rep = absorber_balance(1.0)
print(f"  coherent response amplitude B = {rep['B']}")
print(f"  net outgoing field = {rep['net_outgoing']} x (e^ikr / r)   "
      f"(the full retarded wave)")
print(f"  net ingoing field  = {rep['net_ingoing']}   (advanced wave cancelled)")

# --- damping of the coherent wave by incoherent scattering -------------------
print("\nscattering damping of a coherent wave")
disp = DispersionParams(omega_hat=1.0, k_max=8.0)
spectrum = lambda q, w: np.exp(-(np.asarray(q) ** 2 + np.asarray(w) ** 2) / 1.28)
k0 = 1.2
rate = damping_coefficient(spectrum, k0, float(disp.omega_k(k0)), disp)
print(f"  dmu/dr = {rate:.6f} for a Gaussian response spectrum")
print(f"  resonance response delta(0, s=7.5) = {response_delta(0.0, 7.5)}")
