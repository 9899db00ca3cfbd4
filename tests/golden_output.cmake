# Runs one program in fast mode (DMASIM_FAST=1; the figure benches read
# it, monitor_eval ignores it) and passes only if its stdout equals a
# committed golden file byte for byte. On a mismatch
# the actual output is written next to the test's working directory as
# <golden name>.actual, so `diff` shows which cells moved.
#
#   cmake -DGOLDEN=<file> -P golden_output.cmake -- <program> [args...]
#
# Regenerate a golden file only for an intended change of results, from a
# GCC build at the repository root (the ctest entries are GCC-only, like
# the pinned sweep checksum):
#
#   DMASIM_FAST=1 ./build/bench/bench_fig5_savings_vs_cplimit \
#       > tests/golden/fig5_fast.txt
#   DMASIM_FAST=1 ./build/bench/bench_fig9_cpu_accesses \
#       > tests/golden/fig9_fast.txt
#   ./build/examples/monitor_eval > tests/golden/monitor_eval.txt
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -P ${CMAKE_CURRENT_LIST_FILE} -- <program> [args...]")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E env DMASIM_FAST=1 ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${command} exited '${status}'\nstderr:\n${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; the actual output is "
                      "in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
message(STATUS "matches ${GOLDEN}")
