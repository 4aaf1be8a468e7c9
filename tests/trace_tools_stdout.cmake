# Byte-identity check for replay_trace, the one --trace tool: exports the
# CG.4 trace with predict_nas, then
#   - replays it at --batch-events 64 and 0 and checks that the accuracy
#     blocks (the lines the filter below keeps) equal the simulated run's:
#     a replayed export reports exactly what the run did;
#   - replays it plain, with --window and with --remap-ranks, and compares
#     each run's stdout, with the trace's path replaced by <trace>, to the
#     committed file under EXPECTED_DIR.
# Every run passes --shards 2, because the level header prints the
# resolved shard count (0 resolves to the host's thread count). Any
# difference, and any nonzero exit, fails the test.
#
#   cmake -DPREDICT_NAS=<exe> -DREPLAY_TRACE=<exe> -DWORK_DIR=<dir>
#         -DEXPECTED_DIR=<dir> -P trace_tools_stdout.cmake

cmake_minimum_required(VERSION 3.20)  # list(GET) keeps the empty argument field

foreach(var PREDICT_NAS REPLAY_TRACE WORK_DIR EXPECTED_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DPREDICT_NAS=<exe> -DREPLAY_TRACE=<exe> "
                        "-DWORK_DIR=<dir> -DEXPECTED_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
  endif()
endforeach()

# The accuracy-block lines of a report, the same filter as CI's bt.16
# round trip.
set(accuracy_lines
    "^(logical|physical) level|^ (process|aggregate)|^  (senders|sizes):|^  representative")

set(trace "${WORK_DIR}/cg4.csv")
set(sim_out "${WORK_DIR}/cg4_sim.stdout")
execute_process(COMMAND "${PREDICT_NAS}" cg 4 --shards 2 --export-trace "${trace}"
                RESULT_VARIABLE got
                OUTPUT_FILE "${sim_out}"
                ERROR_VARIABLE err)
if(NOT got EQUAL 0)
  message(FATAL_ERROR "predict_nas cg 4 --shards 2 --export-trace exited '${got}':\n${err}")
endif()
file(STRINGS "${sim_out}" sim_blocks REGEX "${accuracy_lines}" ENCODING UTF-8)
if(NOT sim_blocks)
  message(FATAL_ERROR "predict_nas cg 4 printed no accuracy block lines")
endif()

foreach(batch 64 0)
  set(replay_out "${WORK_DIR}/cg4_replay_b${batch}.stdout")
  execute_process(COMMAND "${REPLAY_TRACE}" --trace "${trace}" --shards 2 --batch-events ${batch}
                  RESULT_VARIABLE got
                  OUTPUT_FILE "${replay_out}"
                  ERROR_VARIABLE err)
  if(NOT got EQUAL 0)
    message(FATAL_ERROR "replay_trace --batch-events ${batch} exited '${got}':\n${err}")
  endif()
  file(STRINGS "${replay_out}" replay_blocks REGEX "${accuracy_lines}" ENCODING UTF-8)
  if(NOT replay_blocks STREQUAL sim_blocks)
    string(REPLACE ";" "\n" sim_text "${sim_blocks}")
    string(REPLACE ";" "\n" replay_text "${replay_blocks}")
    message(FATAL_ERROR "replay_trace --batch-events ${batch} accuracy blocks differ from the "
                        "simulated run's\nreplayed:\n${replay_text}\nsimulated:\n${sim_text}")
  endif()
  message(STATUS "ok: simulated == replayed accuracy blocks, --batch-events ${batch}")
endforeach()

# "<expected file>|<args after --trace <file> --shards 2>"
set(cases
    "cg4_replay_trace.stdout|"
    "cg4_replay_trace_window.stdout|--window 100000000:600000000 --batch-events 64"
    "cg4_replay_trace_remap.stdout|--remap-ranks mod:2")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 expected_file)
  list(GET parts 1 extra)
  separate_arguments(extra UNIX_COMMAND "${extra}")
  execute_process(COMMAND "${REPLAY_TRACE}" --trace "${trace}" --shards 2 ${extra}
                  RESULT_VARIABLE got
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT got EQUAL 0)
    message(FATAL_ERROR "'replay_trace --trace ${trace} --shards 2 ${extra}' exited '${got}':\n"
                        "${err}")
  endif()
  string(REPLACE "${trace}" "<trace>" out "${out}")
  file(READ "${EXPECTED_DIR}/${expected_file}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "'replay_trace --trace <trace> --shards 2 ${extra}' stdout differs from "
                        "${EXPECTED_DIR}/${expected_file}\ngot:\n${out}\nexpected:\n${want}")
  endif()
  message(STATUS "ok: ${expected_file}")
endforeach()
