// Default for the DMASIM_OBS macro, kept only for dmabench's build guard
// (dmabench/src/main.cc). The library does not read it: observability
// levels are chosen per run (SimulationOptions::obs_level).
#ifndef DMASIM_OBS_OBS_CONFIG_H_
#define DMASIM_OBS_OBS_CONFIG_H_

#ifndef DMASIM_OBS
#define DMASIM_OBS 0
#endif

#endif  // DMASIM_OBS_OBS_CONFIG_H_
