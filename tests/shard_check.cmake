# The exhaustive layer of the determinism proof kit (DESIGN.md section
# 15.3), run through dmasim_check --shard:
#
#   MODE=clean  every drain-order interleaving of the default shard
#               scenario must converge on one fingerprint with no
#               violation, and the run must have explored more than one
#               interleaving (a checker that explores nothing would
#               otherwise pass);
#   MODE=fault  each seeded engine fault must be found (nonzero exit),
#               ddmin-minimized into a counterexample file, and that file
#               must reproduce the violation on replay.
#
#   cmake -DMODE=<clean|fault> -DWORK_DIR=<dir>
#         -P shard_check.cmake -- <dmasim_check>
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
if(NOT command OR NOT WORK_DIR OR NOT MODE MATCHES "^(clean|fault)$")
  message(FATAL_ERROR "usage: cmake -DMODE=<clean|fault> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE} -- <dmasim_check>")
endif()

if(MODE STREQUAL "clean")
  execute_process(COMMAND ${command} --shard
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "clean exploration failed with exit '${status}'\n${out}${err}")
  endif()
  string(REGEX MATCH "explored ([0-9]+) interleavings" explored "${out}")
  set(runs "${CMAKE_MATCH_1}")
  if(NOT runs OR runs LESS_EQUAL 1)
    message(FATAL_ERROR "explored '${runs}' interleavings, expected more than one\n${out}")
  endif()
  foreach(expected "1 distinct fingerprints" "no violations")
    string(FIND "${out}" "${expected}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "output lacks '${expected}'\n${out}")
    endif()
  endforeach()
  message(STATUS "explored ${runs} interleavings, one fingerprint")
  return()
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(fault skip-barrier-sort deliver-early)
  set(counterexample "${WORK_DIR}/shard_${fault}.txt")
  file(REMOVE "${counterexample}")
  execute_process(COMMAND ${command} --shard --engine-fault ${fault}
                          --out ${counterexample}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(status STREQUAL "0")
    message(FATAL_ERROR "engine fault ${fault} was NOT detected\n${out}${err}")
  endif()
  if(NOT EXISTS "${counterexample}")
    message(FATAL_ERROR "engine fault ${fault}: no counterexample written\n${out}${err}")
  endif()
  execute_process(COMMAND ${command} --shard --replay ${counterexample}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "engine fault ${fault}: replay failed with exit '${status}'\n${out}${err}")
  endif()
  message(STATUS "engine fault ${fault}: found, minimized, replayed")
endforeach()
