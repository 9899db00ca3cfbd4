// Default for the DMASIM_AUDIT_LEVEL macro, kept only for dmabench's
// build guard (dmabench/src/main.cc). The library does not read it:
// audit levels are chosen per run (SimulationOptions::audit_level).
#ifndef DMASIM_AUDIT_AUDIT_CONFIG_H_
#define DMASIM_AUDIT_AUDIT_CONFIG_H_

#ifndef DMASIM_AUDIT_LEVEL
#define DMASIM_AUDIT_LEVEL 0
#endif

#endif  // DMASIM_AUDIT_AUDIT_CONFIG_H_
