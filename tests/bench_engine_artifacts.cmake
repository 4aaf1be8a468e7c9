# Runs every bench_engine section at toy size with --out into WORK_DIR and
# requires each artifact to parse as JSON (check_trace_events.py
# --parse-only), so a figure printed as a bare nan or inf fails here.
#
#   cmake -DTOOL=<bench_engine> -DPYTHON=<python3> -DCHECKER=<check_trace_events.py>
#         -DWORK_DIR=<dir> -P bench_engine_artifacts.cmake

if(NOT TOOL OR NOT PYTHON OR NOT CHECKER OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTOOL=<exe> -DPYTHON=<python3> -DCHECKER=<script> "
                      "-DWORK_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(files)
foreach(case "scaling --events 2000 --streams 100 --shards 2"
             "latency --events 256 --tenants 2 --shards 2"
             "overhead --events 1000")
  separate_arguments(args UNIX_COMMAND "${case}")
  list(GET args 0 section)
  set(file "${WORK_DIR}/${section}.json")
  execute_process(COMMAND "${TOOL}" ${args} --out "${file}"
                  RESULT_VARIABLE got
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT got EQUAL 0)
    message(FATAL_ERROR "'${TOOL} ${args} --out ${file}' exited '${got}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  list(APPEND files "${file}")
endforeach()

execute_process(COMMAND "${PYTHON}" "${CHECKER}" --parse-only ${files}
                RESULT_VARIABLE got
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT got EQUAL 0)
  message(FATAL_ERROR "artifacts do not parse as JSON:\n${out}${err}")
endif()
message(STATUS "ok: ${files}")
