# Byte-identity check for the --trace tools: exports the CG.4 trace with
# predict_nas, replays it through replay_trace and bench_adaptive (plain,
# with --window and with --remap-ranks), and compares each run's stdout,
# with the trace's path replaced by <trace>, to the committed file under
# EXPECTED_DIR. Any difference, and any nonzero exit, fails the test.
#
#   cmake -DPREDICT_NAS=<exe> -DREPLAY_TRACE=<exe> -DBENCH_ADAPTIVE=<exe>
#         -DWORK_DIR=<dir> -DEXPECTED_DIR=<dir> -P trace_tools_stdout.cmake

cmake_minimum_required(VERSION 3.20)  # list(GET) keeps the empty argument field

foreach(var PREDICT_NAS REPLAY_TRACE BENCH_ADAPTIVE WORK_DIR EXPECTED_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DPREDICT_NAS=<exe> -DREPLAY_TRACE=<exe> "
                        "-DBENCH_ADAPTIVE=<exe> -DWORK_DIR=<dir> -DEXPECTED_DIR=<dir> "
                        "-P ${CMAKE_SCRIPT_MODE_FILE}")
  endif()
endforeach()

set(trace "${WORK_DIR}/cg4.csv")
execute_process(COMMAND "${PREDICT_NAS}" cg 4 --export-trace "${trace}"
                RESULT_VARIABLE got
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT got EQUAL 0)
  message(FATAL_ERROR "predict_nas cg 4 --export-trace exited '${got}':\n${err}")
endif()

# "<expected file>|<tool>|<args after --trace <file>>"
set(cases
    "cg4_replay_trace.stdout|${REPLAY_TRACE}|"
    "cg4_bench_adaptive.stdout|${BENCH_ADAPTIVE}|"
    "cg4_replay_trace_window.stdout|${REPLAY_TRACE}|--window 100000000:600000000 --batch-events 64"
    "cg4_bench_adaptive_remap.stdout|${BENCH_ADAPTIVE}|--remap-ranks mod:2")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 expected_file)
  list(GET parts 1 tool)
  list(GET parts 2 extra)
  separate_arguments(extra UNIX_COMMAND "${extra}")
  execute_process(COMMAND "${tool}" --trace "${trace}" ${extra}
                  RESULT_VARIABLE got
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT got EQUAL 0)
    message(FATAL_ERROR "'${tool} --trace ${trace} ${extra}' exited '${got}':\n${err}")
  endif()
  string(REPLACE "${trace}" "<trace>" out "${out}")
  file(READ "${EXPECTED_DIR}/${expected_file}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "'${tool} --trace <trace> ${extra}' stdout differs from "
                        "${EXPECTED_DIR}/${expected_file}\ngot:\n${out}\nexpected:\n${want}")
  endif()
  message(STATUS "ok: ${expected_file}")
endforeach()
