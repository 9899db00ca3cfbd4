# Runs one command-line tool with a hostile flag value (or input file) and
# passes only if the tool rejects it as a usage error: exit status 2 and a
# message on stderr that names the flag ("<program>: <FLAG>: ...") or the
# file's line ("<program>: <file>: line N: ...", FLAG=line N).
#
#   cmake -DFLAG=<flag> -P cli_usage_error.cmake -- <program> [args...]
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
if(NOT command OR NOT FLAG)
  message(FATAL_ERROR "usage: cmake -DFLAG=<flag> -P ${CMAKE_CURRENT_LIST_FILE} -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" ": ${FLAG}: " named)
if(NOT status STREQUAL "2" OR named EQUAL -1)
  message(FATAL_ERROR "expected exit 2 and a message naming ${FLAG}; got "
                      "exit '${status}'\nstderr:\n${err}")
endif()
message(STATUS "rejected: ${err}")
