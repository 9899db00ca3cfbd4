// Ownership annotations for state reachable from sharded-engine worker
// context — the vocabulary of the determinism contract (DESIGN.md §15).
//
// The sharded engine's bit-for-bit determinism rests on a discipline:
// during a window, worker threads may touch only state owned by their
// own shard; everything crossing shards moves through SPSC mailboxes
// and is applied at the barrier in a sorted total order. These macros
// make that discipline *visible in the declaration* so the ownership
// rules of `tools/lint/dmasim_lint.py` can enforce it: every mutable
// member of a type in their scope (`src/sim/`, `src/server/domain.*`,
// `src/server/fleet_driver.*`) must carry exactly one of them.
//
//   DMASIM_SHARD_LOCAL   Owned by a single shard (equivalently: by the
//                        one worker executing that shard's window, or by
//                        one side of an SPSC pair). Never read or
//                        written by any other thread during a window.
//
//   DMASIM_BARRIER_ONLY  Touched only on the coordinator thread between
//                        windows (at the barrier), while every worker
//                        waits. On a method, it additionally marks the
//                        method as callable only from barrier context —
//                        the linter flags calls from window-context
//                        functions (those marked `// dmasim-lint:
//                        window-context`).
//
//   DMASIM_SHARED_CONST  Written only while the engine is quiescent (at
//                        setup or between windows, before workers are
//                        released) and read-only to every worker during
//                        a window. Logically const for the window's
//                        duration; the team's epoch store that opens
//                        the window provides the happens-before edge.
//
// The macros expand to nothing — they are parsed by the linter, not the
// compiler — so annotating costs zero object code. Waivers use
// `// dmasim-lint: allow(<rule>)` on or above the offending line.
#ifndef DMASIM_SIM_SHARD_ANNOTATIONS_H_
#define DMASIM_SIM_SHARD_ANNOTATIONS_H_

#define DMASIM_SHARD_LOCAL
#define DMASIM_BARRIER_ONLY
#define DMASIM_SHARED_CONST

#endif  // DMASIM_SIM_SHARD_ANNOTATIONS_H_
