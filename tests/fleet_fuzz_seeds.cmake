# Schedule-fuzz checks on a real fleet (DESIGN.md section 15.2), run
# through fleet_scenario. Each check first records the unperturbed run's
# fingerprint and window digests (seed 0), then runs seeds 1..8:
#
#   MODE=identical  every seed must match seed 0's fingerprint and every
#                   window digest;
#   MODE=fault      with the seeded barrier-sort fault switched on, at
#                   least one seed must diverge, and every divergent run
#                   must name its first mismatching window.
#
#   cmake -DMODE=<identical|fault> -DWORK_DIR=<dir>
#         -P fleet_fuzz_seeds.cmake -- <fleet_scenario> [args...]
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
if(NOT command OR NOT WORK_DIR OR NOT MODE MATCHES "^(identical|fault)$")
  message(FATAL_ERROR "usage: cmake -DMODE=<identical|fault> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE} -- <fleet_scenario> [args...]")
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

set(fault_flags)
if(MODE STREQUAL "fault")
  set(fault_flags --engine-fault skip-barrier-sort)
endif()
set(diverged 0)
foreach(seed RANGE 1 8)
  execute_process(COMMAND ${command} --sched-fuzz-seed ${seed} ${fault_flags}
                          --compare-window-digests ${base_digests}
                          --fingerprint-only
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(MODE STREQUAL "identical")
    last_line("${out}" fingerprint)
    if(NOT status STREQUAL "0" OR NOT fingerprint STREQUAL base_fingerprint)
      message(FATAL_ERROR "seed ${seed} differs from seed 0 (exit '${status}', "
                          "fingerprint '${fingerprint}' vs "
                          "'${base_fingerprint}')\n${out}${err}")
    endif()
    message(STATUS "seed ${seed}: fingerprint ${fingerprint}")
  elseif(status STREQUAL "0")
    message(STATUS "seed ${seed}: no divergence")
  else()
    string(FIND "${out}" "diverge at window" named)
    if(named EQUAL -1)
      message(FATAL_ERROR "seed ${seed} failed (exit '${status}') without "
                          "naming its first mismatching window\n${out}${err}")
    endif()
    math(EXPR diverged "${diverged} + 1")
    message(STATUS "seed ${seed}: ${out}")
  endif()
endforeach()
if(MODE STREQUAL "fault" AND diverged EQUAL 0)
  message(FATAL_ERROR "the seeded barrier-sort fault diverged on no seed")
endif()
