"""Geometric power and G-SNR.

Variance-based SNR is useless for alpha-stable noise (infinite variance),
so signal strength is measured by the geometric power exp(E[log|N|]) and
channels are compared at equal G-SNR.  This script maps physical channel
parameters to noise laws and shows the G-SNR bookkeeping.
"""

from mtchan import (ChannelSpec, System, geometric_power, physics_to_channel,
                    scale_for_gsnr, system_gsnr)

print("physics -> noise law (d in um, D in um^2/s, times in s):")
for spec in (ChannelSpec(System.A, d=10.0, D=5.0),
             ChannelSpec(System.B, d=10.0, D=5.0),
             ChannelSpec(System.C, d=10.0, D_a=5.0, D_b=1.0)):
    noise = physics_to_channel(spec)
    s0 = geometric_power(noise)
    print(f"  system {spec.system.value}: c = {noise.c:8.2f} s, "
          f"beta = {noise.beta:+.3f}, geometric power = {s0:8.2f} s")

print("\nG-SNR at symbol separation delta = 20 s for those channels:")
for spec in (ChannelSpec(System.A, d=10.0, D=5.0),
             ChannelSpec(System.B, d=10.0, D=5.0),
             ChannelSpec(System.C, d=10.0, D_a=5.0, D_b=1.0)):
    noise = physics_to_channel(spec)
    g = system_gsnr(spec.system, 20.0, noise.c, noise.beta)
    tag = " (upper bound)" if spec.system is System.B else ""
    print(f"  system {spec.system.value}: G-SNR = {g:.5f}{tag}")

print("\ninverting the relation: noise scale needed for G-SNR = 10, delta = 1:")
for system, beta in ((System.A, 0.0), (System.B, 0.0), (System.C, 0.5)):
    c = scale_for_gsnr(system, 1.0, 10.0, beta)
    print(f"  system {system.value}: c = {c:.6f}")
