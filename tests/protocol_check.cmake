# The protocol model checker's bounded gates (DESIGN.md sections 12 and
# 16), run through dmasim_check:
#
#   MODE=clean  the exploration must exit 0 with no violation and must
#               have explored states (a checker that explores nothing
#               would otherwise pass);
#   MODE=fault  with the seeded resync-skip fault the run must exit
#               nonzero and write a counterexample that names
#               CHIP_MODEL (so its replay rebuilds the right harness),
#               and replaying that file must reproduce the violation.
#
#   cmake -DMODE=<clean|fault> -DCHIP_MODEL=<model> -DWORK_DIR=<dir>
#         -P protocol_check.cmake -- <dmasim_check> [args...]
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
if(NOT command OR NOT WORK_DIR OR NOT CHIP_MODEL OR
   NOT MODE MATCHES "^(clean|fault)$")
  message(FATAL_ERROR "usage: cmake -DMODE=<clean|fault> -DCHIP_MODEL=<model> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE} -- <dmasim_check> [args...]")
endif()

if(MODE STREQUAL "clean")
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${CHIP_MODEL} exploration failed with exit '${status}'\n${out}${err}")
  endif()
  string(REGEX MATCH "explored ([0-9]+) states" explored "${out}")
  set(states "${CMAKE_MATCH_1}")
  if(NOT states OR states LESS_EQUAL 0)
    message(FATAL_ERROR "${CHIP_MODEL}: explored '${states}' states, expected more than zero\n${out}")
  endif()
  string(FIND "${out}" "no violations" clean)
  if(clean EQUAL -1)
    message(FATAL_ERROR "${CHIP_MODEL}: output lacks 'no violations'\n${out}")
  endif()
  message(STATUS "${CHIP_MODEL}: explored ${states} states, no violations")
  return()
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(counterexample "${WORK_DIR}/resync_skip_${CHIP_MODEL}.txt")
file(REMOVE "${counterexample}")
execute_process(COMMAND ${command} --fault resync-skip --out ${counterexample}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(status STREQUAL "0")
  message(FATAL_ERROR "${CHIP_MODEL}: seeded fault was NOT detected\n${out}${err}")
endif()
if(NOT EXISTS "${counterexample}")
  message(FATAL_ERROR "${CHIP_MODEL}: no counterexample written\n${out}${err}")
endif()
file(STRINGS "${counterexample}" model_lines REGEX "^chip_model ")
if(NOT model_lines STREQUAL "chip_model ${CHIP_MODEL}")
  message(FATAL_ERROR "counterexample names '${model_lines}', expected 'chip_model ${CHIP_MODEL}'")
endif()
list(GET command 0 checker)
execute_process(COMMAND ${checker} --replay ${counterexample}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${CHIP_MODEL}: replay failed with exit '${status}'\n${out}${err}")
endif()
message(STATUS "${CHIP_MODEL}: seeded fault found, written and replayed")
