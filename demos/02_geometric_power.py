"""Geometric power and G-SNR.

Variance-based SNR is useless for alpha-stable noise (infinite variance),
so signal strength is measured by the geometric power exp(E[log|N|]) and
channels are compared at equal G-SNR.  This script maps physical channel
parameters to noise laws and shows the G-SNR bookkeeping.
"""

from mtchan import (System, geometric_power, physics_to_channel, scale_for_gsnr,
                    system_gsnr)

# (system, diffusion coefficients) at distance d = 10: C has one per particle
CHANNELS = ((System.A, (5.0,)), (System.B, (5.0,)), (System.C, (5.0, 1.0)))

print("physics -> noise law (d in um, D in um^2/s, times in s):")
for system, coefficients in CHANNELS:
    noise = physics_to_channel(system, 10.0, *coefficients)
    s0 = geometric_power(noise)
    print(f"  system {system.value}: c = {noise.c:8.2f} s, "
          f"beta = {noise.beta:+.3f}, geometric power = {s0:8.2f} s")

print("\nG-SNR at symbol separation delta = 20 s for those channels:")
for system, coefficients in CHANNELS:
    noise = physics_to_channel(system, 10.0, *coefficients)
    g = system_gsnr(system, 20.0, noise.c, noise.beta)
    tag = " (upper bound)" if system is System.B else ""
    print(f"  system {system.value}: G-SNR = {g:.5f}{tag}")

print("\ninverting the relation: noise scale needed for G-SNR = 10, delta = 1:")
for system, beta in ((System.A, 0.0), (System.B, 0.0), (System.C, 0.5)):
    c = scale_for_gsnr(system, 1.0, 10.0, beta)
    print(f"  system {system.value}: c = {c:.6f}")
