# The schedule-fuzz check on a real fleet (DESIGN.md section 15.2), run
# through fleet_scenario. It records the unperturbed run's fingerprint
# and window digests (seed 0), then runs seeds 1..8, each of which must
# match seed 0's fingerprint and every window digest.
#
#   cmake -DWORK_DIR=<dir> -P fleet_fuzz_seeds.cmake
#         -- <fleet_scenario> [args...]
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
if(NOT command OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE} -- <fleet_scenario> [args...]")
endif()

# The last line of a --fingerprint-only run is its fingerprint.
function(last_line text out)
  string(STRIP "${text}" text)
  string(REGEX MATCH "[^\n]*$" line "${text}")
  set(${out} "${line}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(base_digests "${WORK_DIR}/digests_base.txt")
execute_process(COMMAND ${command} --window-digests ${base_digests}
                        --fingerprint-only
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "seed 0 run failed with exit '${status}'\n${out}${err}")
endif()
last_line("${out}" base_fingerprint)
message(STATUS "seed 0: fingerprint ${base_fingerprint}")

foreach(seed RANGE 1 8)
  execute_process(COMMAND ${command} --sched-fuzz-seed ${seed}
                          --compare-window-digests ${base_digests}
                          --fingerprint-only
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  last_line("${out}" fingerprint)
  if(NOT status STREQUAL "0" OR NOT fingerprint STREQUAL base_fingerprint)
    message(FATAL_ERROR "seed ${seed} differs from seed 0 (exit '${status}', "
                        "fingerprint '${fingerprint}' vs "
                        "'${base_fingerprint}')\n${out}${err}")
  endif()
  message(STATUS "seed ${seed}: fingerprint ${fingerprint}")
endforeach()
