# Fail-closed check for a command-line tool: runs TOOL once per case and
# fails unless each run exits with exactly the expected code. An abort
# (std::terminate, any signal) never matches, and neither does the wrong
# nonzero code. A case is "<code>:<args>"; cases are separated by '|',
# arguments by spaces. Exit 0 must print to stdout; any other code must
# explain itself on stderr.
#
#   cmake -DTOOL=<exe> "-DCASES=0:--help|1:nosuchapp" -P cli_exit_codes.cmake

if(NOT TOOL OR NOT CASES)
  message(FATAL_ERROR
          "usage: cmake -DTOOL=<exe> -DCASES=<code>:<args>|... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

string(REPLACE "|" ";" case_list "${CASES}")
foreach(case IN LISTS case_list)
  string(FIND "${case}" ":" colon)
  string(SUBSTRING "${case}" 0 ${colon} expected)
  math(EXPR args_at "${colon} + 1")
  string(SUBSTRING "${case}" ${args_at} -1 args)
  separate_arguments(args UNIX_COMMAND "${args}")
  execute_process(COMMAND "${TOOL}" ${args}
                  RESULT_VARIABLE got
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT "${got}" STREQUAL "${expected}")
    message(FATAL_ERROR "'${TOOL} ${args}' exited '${got}', expected ${expected}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(expected EQUAL 0 AND "${out}" STREQUAL "")
    message(FATAL_ERROR "'${TOOL} ${args}' exited 0 but printed nothing to stdout")
  endif()
  if(NOT expected EQUAL 0 AND "${err}" STREQUAL "")
    message(FATAL_ERROR "'${TOOL} ${args}' exited ${got} without a message on stderr")
  endif()
  message(STATUS "ok: '${args}' -> ${got}")
endforeach()
