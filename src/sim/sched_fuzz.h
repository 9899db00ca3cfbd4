// Default for the DMASIM_SCHED_FUZZ macro, kept only for dmabench's build
// guard (dmabench/src/main.cc). The library does not read it: every build
// honours ShardedEngine::Options::sched_fuzz_seed.
#ifndef DMASIM_SIM_SCHED_FUZZ_H_
#define DMASIM_SIM_SCHED_FUZZ_H_

#ifndef DMASIM_SCHED_FUZZ
#define DMASIM_SCHED_FUZZ 0
#endif

#endif  // DMASIM_SIM_SCHED_FUZZ_H_
