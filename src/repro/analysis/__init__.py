"""Evaluation analytics: the data behind every table and figure (paper §V).

- :mod:`repro.analysis.pipeline` — the canonical simulate → collect →
  reconstruct → diagnose pipeline shared by examples and benchmarks;
- :mod:`repro.analysis.causes` — server-outage attribution, cause shares
  (Fig. 9, §V-C), per-day composition (Fig. 6);
- :mod:`repro.analysis.temporal` — loss scatter series and burstiness
  (Figs. 4/5);
- :mod:`repro.analysis.spatial` — spatial received-loss distribution
  (Fig. 8);
- :mod:`repro.analysis.accuracy` — scoring reconstruction against the
  simulator's ground truth (the ablation benchmarks);
- :mod:`repro.analysis.report` — ASCII rendering of figure data.
"""
