"""Open-loop serving frontend: arrivals, admission, batching, SLO dispatch.

The paper drives devices closed-loop at a fixed queue depth (Sec. III);
this package models the serving path in front of that device — an
open-loop arrival process feeding an event-loop frontend that batches
commands into the NVMe submission model, sheds load when the admission
queue fills, and schedules SLO classes deadline-aware.  Offered load
becomes an independent variable, which is what turns fig4's queue-depth
sweep into a latency-vs-offered-load curve with a saturation knee.
"""
